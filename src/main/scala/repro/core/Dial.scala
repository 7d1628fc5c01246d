package repro.core

import java.util.IdentityHashMap
import org.apache.spark.sql.SparkSession
import repro.core.ActiveLearning.timed
import repro.data.ERDataset
import repro.index.EmbView
import repro.rules.RulesBlocker
import repro.text.HashEmbedding
import repro.util.{Par, Rnd}
import scala.collection.mutable

/** Which blocking strategy feeds the candidate set (paper §4.3). */
sealed trait BlockerMode { def name: String }
case object IbcMode extends BlockerMode { val name = "DIAL" }
case object PairedFixedMode extends BlockerMode { val name = "PairedFixed" }
case object PairedAdaptMode extends BlockerMode { val name = "PairedAdapt" }
case object SentenceBertMode extends BlockerMode { val name = "SentenceBERT" }
case object RulesMode extends BlockerMode { val name = "Rules" }

/** Full configuration of one AL run. Defaults follow the paper (§4.2),
  * rescaled to container size per DESIGN.md §4 and §4b; the AL schedule,
  * 4 labeling rounds of 192 labels (paper 10 × 128), is the one every table
  * runs.
  */
final case class DialConfig(
    blockerMode: BlockerMode = IbcMode,
    committeeN: Int = 3,
    maskP: Double = 0.75,
    k: Int = 3,
    candMult: Double = 3.0,
    rounds: Int = 4,
    budget: Int = 192,
    seedPos: Int = 64,
    seedNeg: Int = 64,
    objective: Objective = Contrastive,
    negMode: NegMode = RandomNegs,
    selector: Strategy = UncertaintySel,
    matcherEpochs: Int = 20,
    blockerEpochs: Int = 150,
    trainG: Boolean = true,
    embedDim: Int = 64,
    seed: Long = 7,
)

/** DIAL's active-learning loop (Algorithm 1) plus every baseline blocking
  * mode, sharing the matcher, selector and evaluation machinery so that the
  * comparisons isolate exactly the blocking strategy, as in the paper.
  *
  * Each round trains, blocks and scores CAND inside [[ActiveLearning.run]],
  * which labels from the gold oracle; after `cfg.rounds` labeling rounds a
  * final train + block + match pass produces the end-of-AL evaluation.
  */
final class Dial(spark: SparkSession, val ds: ERDataset, val cfg: DialConfig) {
  val embedder: Embedder = Dial.embedderFor(ds, cfg.embedDim)
  val emb: HashEmbedding = embedder.emb
  val candSize: Int = math.round(cfg.candMult * ds.s.size).toInt
  private val d = cfg.embedDim

  /** Pair-feature profiles of R then S, indexed like the base embeddings.
    * They belong to this run: built on first use, dropped with the `Dial`.
    */
  private lazy val profiles: IndexedSeq[RecordProfile] = embedder.profiles()

  private def scalars(rId: Int, sId: Int): Array[Double] =
    PairFeatures.scalars(profiles(rId), profiles(ds.r.size + sId))

  private def trainEx(lp: LabeledPair): TrainEx =
    TrainEx(embedder.rBase(lp.rId), embedder.sBase(lp.sId),
            scalars(lp.rId, lp.sId), if (lp.y) 1.0 else 0.0)

  // ------------------------------------------------------------- training

  /** T's training examples and the matcher trained on them. */
  private def trainMatcher(t: IndexedSeq[LabeledPair], round: Int): (IndexedSeq[TrainEx], Matcher) = {
    val data = t.map(trainEx)
    // re-initialised from "pretrained weights" every round, as in §4.2
    val m = new Matcher(d, Rnd.combine(cfg.seed, 100 + round))
    m.train(data, cfg.matcherEpochs, batch = 16, new Rnd.Gen(Rnd.combine(cfg.seed, 200 + round)),
            trainG = cfg.trainG)
    (data, m)
  }

  /** Trains `n` members with mask fraction `maskP` on T, over the
    * matcher-adapted embeddings, and returns their views; the init and
    * training seeds are offset by `initSeed` and `trainSeed` plus the round.
    */
  private def committeeViews(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int,
                             n: Int, maskP: Double, initSeed: Int, trainSeed: Int,
                             tc: Committee.TrainConfig): IndexedSeq[EmbView] = {
    val mode = cfg.blockerMode.name
    require(t.exists(_.y), s"dataset ${ds.name}: the $mode blocker trains on labeled duplicates, " +
      "and T has none (as when no duplicate lies outside the test split, or seedPos = 0)")
    require(tc.negMode == RandomNegs || t.exists(!_.y), s"dataset ${ds.name}: the $mode blocker " +
      "trains on labeled negatives (LabeledNegs), and T has none (as when seedNeg = 0)")
    val com = Committee.init(n, d, maskP, Rnd.combine(cfg.seed, initSeed + round))
    val g = matcher.g
    def adapted(lp: LabeledPair) = (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g))
    // random negatives are drawn from the full lists, labeled ones from T;
    // training reads only the mode's own negatives
    val (rPool, sPool, negs) =
      if (tc.negMode == RandomNegs)
        (ds.r.indices.map(embedder.adaptedR(_, g)), ds.s.indices.map(embedder.adaptedS(_, g)), IndexedSeq.empty)
      else (IndexedSeq.empty, IndexedSeq.empty, t.filterNot(_.y).map(adapted))
    Committee.train(com, tc, t.filter(_.y).map(adapted), rPool, sPool, negs,
      new Rnd.Gen(Rnd.combine(cfg.seed, trainSeed + round)))
    com.members.map(m => new MemberView(g, m))
  }

  /** The views CAND is retrieved under this round, by blocker mode (§4.3):
    * the trained members of DIAL's committee (IBC) or of SentenceBERT's
    * single head, the matcher-adapted embedding for PairedAdapt, and none
    * for PairedFixed and Rules, whose CAND is [[fixedCand]].
    */
  private def blockerViews(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int): IndexedSeq[EmbView] =
    cfg.blockerMode match {
      case IbcMode =>
        committeeViews(t, matcher, round, cfg.committeeN, cfg.maskP, initSeed = 300, trainSeed = 400,
          Committee.TrainConfig(objective = cfg.objective, negMode = cfg.negMode,
                                epochs = cfg.blockerEpochs))
      case SentenceBertMode =>
        // a single full-dimension head trained with the classification
        // objective on the actively-labeled T
        committeeViews(t, matcher, round, n = 1, maskP = 1.0, initSeed = 900, trainSeed = 950,
          Committee.TrainConfig(objective = Classification, negMode = LabeledNegs,
                                epochs = cfg.blockerEpochs))
      case PairedAdaptMode => IndexedSeq(new ScaleView(matcher.g))
      case PairedFixedMode | RulesMode => IndexedSeq.empty
    }

  // ------------------------------------------------------------ retrieval

  /** CAND under `views`; Table 9's "Indexing & Retrieval" covers the index build. */
  private def retrieve(views: IndexedSeq[EmbView]): IndexedSeq[CandPair] =
    Blocker.retrieveCand(embedder.sBase, views, Blocker.buildIndexes(embedder.rBase, views), cfg.k, candSize)

  /** The fixed candidate set of PairedFixed / Rules, computed once, with its
    * seconds, which count as every round's retrieval.
    */
  private lazy val fixedCand: (IndexedSeq[CandPair], Double) = timed(
    if (cfg.blockerMode == RulesMode) RulesBlocker.candidates(spark, ds).map { case (a, b) => CandPair(a, b, 0.0) }
    else retrieve(IndexedSeq(new PlainView)))

  // -------------------------------------------------------------- scoring

  /** Matcher probabilities of CAND, in CAND order, with each pair's
    * features for the selectors; the pairs are scored concurrently outside
    * Spark, from the profiles and base embeddings.
    */
  private[core] def scoreCand(matcher: Matcher, cand: IndexedSeq[CandPair]): IndexedSeq[(ScoredCand, Array[Double])] =
    Par.tabulate(cand.size) { i =>
      val c = cand(i)
      val x = scalars(c.rId, c.sId)
      (ScoredCand(c.rId, c.sId, c.dist, matcher.prob(embedder.rBase(c.rId), embedder.sBase(c.sId), x)), x)
    }

  // ------------------------------------------------------------ selection

  /** `tEx` holds T's training examples; `selectable` pairs each
    * selectable candidate with the features its scoring computed.
    */
  private def selectorCtx(tEx: IndexedSeq[TrainEx], selectable: IndexedSeq[(ScoredCand, Array[Double])],
                          matcher: Matcher, round: Int): SelectorCtx = {
    lazy val features = selectable.toMap
    SelectorCtx(
      rng = new Rnd.Gen(Rnd.combine(cfg.seed, 500 + round)),
      gradEmbedding = c => matcher.gradEmbedding(
        embedder.rBase(c.rId), embedder.sBase(c.sId), features(c)),
      bootstrapProbs = cands => {
        val boot = new Rnd.Gen(Rnd.combine(cfg.seed, 600 + round))
        (0 until 3).map { k =>
          val resampled = IndexedSeq.fill(tEx.length)(tEx(boot.nextInt(tEx.length)))
          val m = new Matcher(d, Rnd.combine(cfg.seed, 700 + round * 10 + k))
          m.train(resampled, epochs = 8, batch = 16,
                  new Rnd.Gen(Rnd.combine(cfg.seed, 800 + round * 10 + k)), trainG = cfg.trainG)
          cands.map(c => m.prob(embedder.rBase(c.rId), embedder.sBase(c.sId), features(c))).toArray
        }
      },
    )
  }

  // ------------------------------------------------------------- the loop

  /** This run's seed set T, a fresh [[ActiveLearning.seedSet]] draw on every call. */
  def seedSet(): IndexedSeq[LabeledPair] = ActiveLearning.seedSet(ds, cfg, embedder)

  def run(): RunResult = {
    profiles // per-record precomputation, outside the Table 9 timers like the base embeddings
    ActiveLearning.run(cfg.blockerMode.name, ds, seedSet(), cfg.rounds, cfg.budget) { (t, round) =>
      val ((tEx, matcher), matcherSec) = timed(trainMatcher(t, round))
      val (views, committeeSec) = timed(blockerViews(t, matcher, round))
      val (cand, retrieveSec) = if (views.isEmpty) fixedCand else timed(retrieve(views))
      val (scored, scoreSec) = timed(scoreCand(matcher, cand))
      ActiveLearning.Round(cand.map(c => (c.rId, c.sId)), scored.map(_._1.prob), (idx, budget) => {
        val selectable = idx.map(scored)
        Selectors.select(cfg.selector, selectable.map(_._1), budget,
                         selectorCtx(tEx, selectable, matcher, round))
      }, StageTimes(matcherSec, committeeSec, retrieveSec, scoreSec))
    }
  }
}

/** The per-dataset embedder memo, keyed on the dataset instance: two datasets
  * of equal name and sizes (e.g. two seeds at one scale) hold different
  * records, and an equality key would hash every record on each lookup.
  */
object Dial {
  private val embedders = new IdentityHashMap[ERDataset, mutable.HashMap[Int, Embedder]]

  /** Base embeddings are a pure function of (dataset, dim) — share across runs. */
  def embedderFor(ds: ERDataset, dim: Int): Embedder = synchronized {
    embedders.computeIfAbsent(ds, _ => mutable.HashMap.empty).getOrElseUpdate(dim,
      new Embedder(new HashEmbedding(dim, 42L, ds.germanToEnglish), ds))
  }
}
