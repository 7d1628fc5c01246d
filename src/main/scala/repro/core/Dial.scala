package repro.core

import java.util.IdentityHashMap
import org.apache.spark.sql.SparkSession
import repro.data.ERDataset
import repro.index.{EmbView, NnIndex}
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
  * rescaled to container size per DESIGN.md §4.
  */
final case class DialConfig(
    blockerMode: BlockerMode = IbcMode,
    committeeN: Int = 3,
    maskP: Double = 0.75,
    k: Int = 3,
    candMult: Double = 3.0,
    candSizeOverride: Option[Int] = None,
    rounds: Int = 4,
    budget: Int = 128,
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

/** Wall-clock (seconds) of the operations of one AL round (paper Table 9). */
final case class OpTimes(matcherSec: Double, committeeSec: Double,
                         retrieveSec: Double, selectSec: Double)

/** Quantities tracked per round (the progressive curves of Figures 4–7). */
final case class RoundStat(round: Int, nLabeled: Int, candRecall: Double,
                           testF1: Double, allF1: Double)

/** Outcome of one full AL run. */
final case class RunResult(
    method: String, dsName: String,
    roundStats: IndexedSeq[RoundStat],
    candRecall: Double,
    testPRF: PRF, allPRF: PRF,
    lastTimes: OpTimes,
    findAllSec: Double,
    nLabeled: Int,
)

/** DIAL's active-learning loop (Algorithm 1) plus every baseline blocking
  * mode, sharing the matcher, selector and evaluation machinery so that the
  * comparisons isolate exactly the blocking strategy, as in the paper.
  *
  * Labels come from the gold oracle. After `cfg.rounds` labeling rounds a
  * final train + block + match pass produces the end-of-AL evaluation.
  */
final class Dial(spark: SparkSession, val ds: ERDataset, val cfg: DialConfig) {

  val embedder: Embedder = Dial.embedderFor(ds, cfg.embedDim)
  val emb: HashEmbedding = embedder.emb
  val candSize: Int = cfg.candSizeOverride.getOrElse((cfg.candMult * ds.s.size).toInt)
  private val d = cfg.embedDim
  private val rng = new Rnd.Gen(Rnd.combine(cfg.seed, Rnd.hash64(ds.name)))

  /** Pair-feature profiles of R then S, indexed like the base embeddings.
    * They belong to this run: built on first use, dropped with the `Dial`.
    */
  private lazy val profiles: IndexedSeq[RecordProfile] =
    embedder.featurizer.profiles((ds.r ++ ds.s).map(_.attrs))

  private def scalars(rId: Int, sId: Int): Array[Double] =
    PairFeatures.scalars(profiles(rId), profiles(ds.r.size + sId))

  private def trainEx(lp: LabeledPair): TrainEx =
    TrainEx(embedder.rBase(lp.rId), embedder.sBase(lp.sId),
            scalars(lp.rId, lp.sId), if (lp.y) 1.0 else 0.0)

  // ------------------------------------------------------------- seed set

  /** Inverted token index over R for hard-negative seed sampling. */
  private lazy val tokenIndex: Map[String, IndexedSeq[Int]] = {
    val m = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    ds.r.foreach(rec => rec.tokenSet.foreach(t => m.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += rec.id))
    m.view.mapValues(_.toIndexedSeq).toMap
  }

  /** Initial labeled seed T: `seedPos` duplicates and `seedNeg` negatives
    * sampled outside the test split. For the multilingual dataset the seed
    * is built by probing a pretrained-embedding index, as in §4.5.
    */
  def seedSet(): IndexedSeq[LabeledPair] = {
    if (ds.germanToEnglish.nonEmpty) return multilingualSeed()
    val dupSeq = ds.dups.toIndexedSeq.sorted.filterNot(ds.testSet.contains)
    val pos = rng.sampleDistinct(dupSeq.length, math.min(cfg.seedPos, dupSeq.length))
      .map(dupSeq).map { case (a, b) => LabeledPair(a, b, y = true) }
    val negs = mutable.LinkedHashSet.empty[(Int, Int)]
    var attempts = 0
    while (negs.size < cfg.seedNeg && attempts < cfg.seedNeg * 200) {
      attempts += 1
      val s = ds.s(rng.nextInt(ds.s.size))
      val hard = negs.size % 2 == 0
      val rIdOpt =
        if (hard) {
          val toks = s.tokenSet.toIndexedSeq
          if (toks.isEmpty) None
          else tokenIndex.get(toks(rng.nextInt(toks.length)))
            .map(ids => ids(rng.nextInt(ids.length)))
        } else Some(rng.nextInt(ds.r.size))
      rIdOpt.foreach { rId =>
        val pair = (rId, s.id)
        if (!ds.dups.contains(pair) && !ds.testSet.contains(pair)) negs += pair
      }
    }
    (pos.toIndexedSeq ++ negs.toIndexedSeq.map { case (a, b) => LabeledPair(a, b, y = false) })
  }

  /** §4.5 seed construction: probe a pretrained-embedding index with every s,
    * split retrieved pairs by gold, sample 50/50.
    */
  private def multilingualSeed(): IndexedSeq[LabeledPair] = {
    val views = IndexedSeq(new PlainView)
    val hits = NnIndex.probe(embedder.sBase, views, Blocker.buildIndexes(embedder.rBase, views), 3)
    val retrieved = hits.indices.flatMap { sId =>
      hits(sId).head.map { case (rId, _) => (rId, sId) }
    }.filterNot(ds.testSet.contains)
    val (dup, non) = retrieved.partition(ds.dups.contains)
    val pos = rng.sampleDistinct(dup.length, math.min(cfg.seedPos, dup.length))
      .map(dup).map { case (a, b) => LabeledPair(a, b, y = true) }
    val neg = rng.sampleDistinct(non.length, math.min(cfg.seedNeg, non.length))
      .map(non).map { case (a, b) => LabeledPair(a, b, y = false) }
    pos.toIndexedSeq ++ neg
  }

  // ------------------------------------------------------------- training

  private def trainMatcher(data: IndexedSeq[TrainEx], round: Int, epochs: Int): Matcher = {
    // re-initialised from "pretrained weights" every round, as in §4.2
    val m = new Matcher(d, Rnd.combine(cfg.seed, 100 + round))
    m.train(data, epochs, batch = 16, new Rnd.Gen(Rnd.combine(cfg.seed, 200 + round)),
            trainG = cfg.trainG)
    m
  }

  /** Trains `n` members with mask fraction `maskP` on T, over the
    * matcher-adapted embeddings; the init and training seeds are offset by
    * `initSeed` and `trainSeed` plus the round.
    */
  private def trainCommittee(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int,
                             n: Int, maskP: Double, initSeed: Int, trainSeed: Int,
                             tc: Committee.TrainConfig): Committee = {
    val com = Committee.init(n, d, maskP, Rnd.combine(cfg.seed, initSeed + round))
    val g = matcher.g
    val pos = t.filter(_.y).map(lp => (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g)))
    val negs = t.filterNot(_.y).map(lp => (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g)))
    val rPool = ds.r.indices.map(i => embedder.adaptedR(i, g))
    val sPool = ds.s.indices.map(i => embedder.adaptedS(i, g))
    Committee.train(com, tc, pos, rPool, sPool, negs,
      new Rnd.Gen(Rnd.combine(cfg.seed, trainSeed + round)))
    com
  }

  /** DIAL's committee (IBC). */
  private def ibcCommittee(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int): Committee =
    trainCommittee(t, matcher, round, cfg.committeeN, cfg.maskP, initSeed = 300, trainSeed = 400,
      Committee.TrainConfig(objective = cfg.objective, negMode = cfg.negMode,
                            epochs = cfg.blockerEpochs))

  // ------------------------------------------------------------ retrieval

  /** Table 9 "Indexing & Retrieval": the clock covers the index build. */
  private def timedRetrieve(views: IndexedSeq[EmbView]): (IndexedSeq[CandPair], Double) = {
    val t0 = System.nanoTime()
    val idx = Blocker.buildIndexes(embedder.rBase, views)
    val cand = Blocker.retrieveCand(embedder.sBase, views, idx, cfg.k, candSize)
    (cand, (System.nanoTime() - t0) / 1e9)
  }

  private def ibcViews(matcher: Matcher, committee: Committee): IndexedSeq[EmbView] =
    committee.members.map(m => new MemberView(matcher.g, m): EmbView)

  /** The fixed candidate set of PairedFixed / Rules, computed once. */
  private lazy val fixedCand: (IndexedSeq[CandPair], Double) =
    if (cfg.blockerMode == RulesMode) {
      val t0 = System.nanoTime()
      val pairs = Dial.rulesFor(spark, ds)
      (pairs.map { case (a, b) => CandPair(a, b, 0.0) }, (System.nanoTime() - t0) / 1e9)
    } else timedRetrieve(IndexedSeq(new PlainView))

  private def retrieve(matcher: Matcher, committee: Option[Committee]): (IndexedSeq[CandPair], Double) =
    cfg.blockerMode match {
      case PairedFixedMode | RulesMode => fixedCand
      case PairedAdaptMode => timedRetrieve(IndexedSeq(new ScaleView(matcher.g)))
      case SentenceBertMode =>
        timedRetrieve(IndexedSeq(new MemberView(matcher.g, committee.get.members.head)))
      case IbcMode => timedRetrieve(ibcViews(matcher, committee.get))
    }

  // -------------------------------------------------------------- scoring

  /** Matcher probabilities of CAND, in CAND order, with each pair's
    * features for the selectors; the pairs are scored concurrently on the
    * driver from the profiles and base embeddings.
    */
  private[core] def scoreCand(matcher: Matcher, cand: IndexedSeq[CandPair]): (IndexedSeq[(ScoredCand, Array[Double])], Double) = {
    val t0 = System.nanoTime()
    val out = Par.tabulate(cand.size) { i =>
      val c = cand(i)
      val x = scalars(c.rId, c.sId)
      (ScoredCand(c.rId, c.sId, c.dist, matcher.prob(embedder.rBase(c.rId), embedder.sBase(c.sId), x)), x)
    }
    (out, (System.nanoTime() - t0) / 1e9)
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

  def run(): RunResult = {
    profiles // per-record precomputation, outside the Table 9 timers like the base embeddings
    var t = seedSet()
    val labeledSet = mutable.LinkedHashSet.empty[(Int, Int)]
    t.foreach(lp => labeledSet += ((lp.rId, lp.sId)))
    val stats = mutable.ArrayBuffer.empty[RoundStat]
    var lastTimes = OpTimes(0, 0, 0, 0)
    var findAllSec = 0.0
    var finalTest = PRF(0, 0, 0); var finalAll = PRF(0, 0, 0); var finalRecall = 0.0

    var round = 1
    val totalRounds = cfg.rounds + 1 // labeling rounds + final evaluation pass
    while (round <= totalRounds) {
      val isFinal = round == totalRounds
      Console.err.println(s"[dial] ${ds.name} ${cfg.blockerMode.name} round=$round " +
        s"|T|=${t.length} |T_p|=${t.count(_.y)}")
      val tm0 = System.nanoTime()
      val tEx = t.map(trainEx)
      val matcher = trainMatcher(tEx, round, cfg.matcherEpochs)
      val matcherSec = (System.nanoTime() - tm0) / 1e9

      val tc0 = System.nanoTime()
      val committee = cfg.blockerMode match {
        case IbcMode => Some(ibcCommittee(t, matcher, round))
        case SentenceBertMode =>
          // SentenceBERT baseline: a single full-dimension head trained with
          // the classification objective on the actively-labeled T (§4.3)
          Some(trainCommittee(t, matcher, round, n = 1, maskP = 1.0, initSeed = 900, trainSeed = 950,
            Committee.TrainConfig(objective = Classification, negMode = LabeledNegs,
                                  epochs = cfg.blockerEpochs)))
        case _ => None
      }
      val committeeSec = (System.nanoTime() - tc0) / 1e9

      val (cand, retrieveSec) = retrieve(matcher, committee)
      val (scored, scoreSec) = scoreCand(matcher, cand)

      val predicted = scored.collect { case (c, _) if c.prob > 0.5 => (c.rId, c.sId) }.toSet
      val recall = Metrics.candRecall(cand.map(c => (c.rId, c.sId)), ds.dups)
      val testPRF = Metrics.testEval(ds.testPairs, predicted)
      val allPRF = Metrics.allPairs(predicted, ds.dups)
      stats += RoundStat(round, t.length, recall, testPRF.f1, allPRF.f1)

      if (!isFinal) {
        val ts0 = System.nanoTime()
        val selectable = scored.filterNot { case (c, _) =>
          labeledSet.contains((c.rId, c.sId)) || ds.testSet.contains((c.rId, c.sId))
        }
        val sel = Selectors.select(cfg.selector, selectable.map(_._1), cfg.budget,
                                   selectorCtx(tEx, selectable, matcher, round))
        val selectSec = (System.nanoTime() - ts0) / 1e9
        val newly = sel.map { case (a, b) => LabeledPair(a, b, ds.dups.contains((a, b))) }
        t = t ++ newly
        newly.foreach(lp => labeledSet += ((lp.rId, lp.sId)))
        // Table 9 semantics: "Selection" includes the matcher inference over
        // CAND that feeds the uncertainty scores; retrieval is pure IBC.
        lastTimes = OpTimes(matcherSec, committeeSec, retrieveSec, scoreSec + selectSec)
      } else {
        finalTest = testPRF; finalAll = allPRF; finalRecall = recall
        findAllSec = retrieveSec + scoreSec
      }
      round += 1
    }
    RunResult(cfg.blockerMode.name, ds.name, stats.toIndexedSeq, finalRecall,
              finalTest, finalAll, lastTimes, findAllSec, t.length)
  }

  /** One timed "find all duplicates" pass of a `cfg.committeeN` committee,
    * after a single training on the seed set (paper Table 10: testing time
    * vs N).
    */
  def timedFindAll(): Double = {
    profiles // built before the timed pass, as in run()
    val t = seedSet()
    val matcher = trainMatcher(t.map(trainEx), round = 1, cfg.matcherEpochs)
    val committee = ibcCommittee(t, matcher, round = 1)
    val (cand, retrieveSec) = timedRetrieve(ibcViews(matcher, committee))
    val (_, scoreSec) = scoreCand(matcher, cand)
    retrieveSec + scoreSec
  }
}

/** Per-dataset memos, keyed on the dataset instance: two generated datasets
  * of equal name and sizes (e.g. two seeds at one scale) hold different
  * records, and an equality key would hash every record on each lookup.
  */
object Dial {
  private val embedders = new IdentityHashMap[ERDataset, mutable.HashMap[Int, Embedder]]
  private val rulesCache = new IdentityHashMap[ERDataset, IndexedSeq[(Int, Int)]]

  /** Base embeddings are a pure function of (dataset, dim) — share across runs. */
  def embedderFor(ds: ERDataset, dim: Int): Embedder = synchronized {
    embedders.computeIfAbsent(ds, _ => mutable.HashMap.empty).getOrElseUpdate(dim,
      new Embedder(new HashEmbedding(dim, 42L, ds.germanToEnglish), ds))
  }

  /** Rule candidate sets are fixed per dataset — share across runs. */
  def rulesFor(spark: SparkSession, ds: ERDataset): IndexedSeq[(Int, Int)] = synchronized {
    rulesCache.computeIfAbsent(ds, _ => RulesBlocker.candidates(spark, ds))
  }
}
