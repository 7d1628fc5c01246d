package dialbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.core._
import repro.data.ERDataset
import repro.index.{EmbView, NnIndex, SparkKnn}
import repro.util.Rnd
import scala.collection.mutable

/** What the traced replay of one run produced, beyond its spans. */
final case class ReplayOutcome(
    stats: IndexedSeq[RoundStat],
    nLabeled: Int,
    problems: Seq[String],
    matcherExampleEpochs: Long,
    committeeMemberSteps: Long,
    indexVectors: Long,
    retrievalProbes: Long,
    candTotal: Long,
    driverScalars: Long,
    distinctFeaturised: Long,
    selected: Long,
    selectedPositives: Long,
    finalMatcher: Matcher,
    finalPositives: IndexedSeq[LabeledPair],
    finalViews: IndexedSeq[EmbView],
    finalIndexes: IndexedSeq[NnIndex],
    finalCand: IndexedSeq[CandPair],
)

/** Replays `Dial.run()` one layer at a time for the IBC blocker: the same
  * public calls `Dial` makes, in the same order with the same seeds, each
  * wrapped in a span. The result must equal the untraced run's round by
  * round; `BenchMain` checks that before it trusts any per-layer number.
  */
final class Replay(spark: SparkSession, ds: ERDataset, cfg: DialConfig, tr: Tracer) {
  require(cfg.blockerMode == IbcMode, "the replay follows the IBC (DIAL) blocker only")

  private val dial = new Dial(spark, ds, cfg)
  private val embedder = dial.embedder
  private val d = cfg.embedDim

  // Dial's driver-side pair-feature cache; its size counts the driver path.
  private val scalarCache = mutable.HashMap.empty[(Int, Int), Array[Double]]

  private def scalars(rId: Int, sId: Int): Array[Double] =
    scalarCache.getOrElseUpdate((rId, sId),
      embedder.featurizer.scalars(ds.rById(rId).attrs, ds.sById(sId).attrs))

  private def trainEx(lp: LabeledPair): TrainEx =
    TrainEx(embedder.rBase(lp.rId), embedder.sBase(lp.sId),
            scalars(lp.rId, lp.sId), if (lp.y) 1.0 else 0.0)

  private def trainMatcher(t: IndexedSeq[LabeledPair], round: Int): Matcher = {
    val m = new Matcher(d, Rnd.combine(cfg.seed, 100 + round))
    m.train(t.map(trainEx), cfg.matcherEpochs, batch = 16,
            new Rnd.Gen(Rnd.combine(cfg.seed, 200 + round)), trainG = cfg.trainG)
    m
  }

  private def trainCommittee(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int): Committee = {
    val com = Committee.init(cfg.committeeN, d, cfg.maskP, Rnd.combine(cfg.seed, 300 + round))
    val g = matcher.g
    val pos = t.filter(_.y).map(lp => (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g)))
    val negs = t.filterNot(_.y).map(lp => (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g)))
    val rPool = ds.r.indices.map(i => embedder.adaptedR(i, g))
    val sPool = ds.s.indices.map(i => embedder.adaptedS(i, g))
    Committee.train(com,
      Committee.TrainConfig(objective = cfg.objective, negMode = cfg.negMode, epochs = cfg.blockerEpochs),
      pos, rPool, sPool, negs, new Rnd.Gen(Rnd.combine(cfg.seed, 400 + round)))
    com
  }

  private var sDfCache: DataFrame = _
  private def sDf: DataFrame = {
    if (sDfCache == null) { sDfCache = ds.sDF(spark).cache(); sDfCache.count() }
    sDfCache
  }

  private def scoreCand(matcher: Matcher, cand: IndexedSeq[CandPair]): IndexedSeq[ScoredCand] = {
    if (cand.isEmpty) return IndexedSeq.empty
    val candDf = spark.createDataFrame(
      spark.sparkContext.parallelize(cand.map(c => Row(c.rId, c.sId)), math.max(1, cand.size / 4000)),
      StructType(Array(StructField("rid", IntegerType, nullable = false),
                       StructField("sid", IntegerType, nullable = false))))
    val rMap = ds.r.map(x => x.id -> x.attrs).toMap
    val sMap = ds.s.map(x => x.id -> x.attrs).toMap
    val scored = SparkKnn.scorePairs(spark, candDf, rMap, sMap,
        new MatcherScorer(dial.emb, embedder.featurizer, matcher))
      .collect().map(r => ((r.getInt(0), r.getInt(1)), r.getDouble(2))).toMap
    cand.map(c => ScoredCand(c.rId, c.sId, c.dist, scored((c.rId, c.sId))))
  }

  private def selectorCtx(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int): SelectorCtx =
    SelectorCtx(
      rng = new Rnd.Gen(Rnd.combine(cfg.seed, 500 + round)),
      gradEmbedding = c => matcher.gradEmbedding(
        embedder.rBase(c.rId), embedder.sBase(c.sId), scalars(c.rId, c.sId)),
      bootstrapProbs = cands => {
        val boot = new Rnd.Gen(Rnd.combine(cfg.seed, 600 + round))
        (0 until 3).map { k =>
          val resampled = IndexedSeq.fill(t.length)(t(boot.nextInt(t.length)))
          val m = new Matcher(d, Rnd.combine(cfg.seed, 700 + round * 10 + k))
          m.train(resampled.map(trainEx), epochs = 8, batch = 16,
                  new Rnd.Gen(Rnd.combine(cfg.seed, 800 + round * 10 + k)), trainG = cfg.trainG)
          cands.map(c => m.prob(embedder.rBase(c.rId), embedder.sBase(c.sId),
                                scalars(c.rId, c.sId))).toArray
        }
      },
    )

  def run(): ReplayOutcome = {
    val problems = mutable.ArrayBuffer.empty[String]
    var t = tr.span("seed")(dial.seedSet())
    val labeledSet = mutable.LinkedHashSet.empty[(Int, Int)]
    t.foreach(lp => labeledSet += ((lp.rId, lp.sId)))
    val stats = mutable.ArrayBuffer.empty[RoundStat]
    val cands = mutable.ArrayBuffer.empty[IndexedSeq[CandPair]]
    var exampleEpochs, memberSteps, vectors, probes, candTotal, selected, selectedPos = 0L
    var last: (Matcher, IndexedSeq[EmbView], IndexedSeq[NnIndex], IndexedSeq[CandPair]) = null

    val totalRounds = cfg.rounds + 1
    (1 to totalRounds).foreach { round =>
      tr.span("round") {
        val matcher = tr.span("matcher")(trainMatcher(t, round))
        exampleEpochs += t.length.toLong * cfg.matcherEpochs
        val committee = tr.span("committee")(trainCommittee(t, matcher, round))
        memberSteps += cfg.committeeN.toLong * cfg.blockerEpochs *
          math.ceil(t.count(_.y).toDouble / Committee.TrainConfig().batch).toLong
        val views = committee.members.map(m => new MemberView(matcher.g, m): EmbView)
        val idx = tr.span("index")(Blocker.buildIndexes(embedder.rBase, views))
        vectors += idx.map(_.size.toLong).sum
        val cand = tr.span("retrieval")(
          Blocker.retrieveCand(spark, ds, sDf, dial.emb, views, idx, cfg.k, dial.candSize))
        probes += ds.s.size.toLong * views.length
        candTotal += cand.size
        cands += cand
        val scored = tr.span("scoring")(scoreCand(matcher, cand))

        tr.span("metrics") {
          val predicted = scored.filter(_.prob > 0.5).map(c => (c.rId, c.sId)).toSet
          val recall = Metrics.candRecall(cand.map(c => (c.rId, c.sId)), ds.dups)
          val testPRF = Metrics.testEval(ds.testPairs, predicted)
          val allPRF = Metrics.allPairs(predicted, ds.dups)
          stats += RoundStat(round, t.length, recall, testPRF.f1, allPRF.f1)
        }

        if (round < totalRounds) {
          val newly = tr.span("selection") {
            val selectable = scored.filterNot { c =>
              labeledSet.contains((c.rId, c.sId)) || ds.testSet.contains((c.rId, c.sId))
            }
            val sel = Selectors.select(cfg.selector, selectable, cfg.budget, selectorCtx(t, matcher, round))
            val expected = math.min(cfg.budget, selectable.size)
            if (sel.size != expected)
              problems += s"round $round: selected ${sel.size} pairs, expected min(B, selectable) = $expected"
            sel.map { case (a, b) => LabeledPair(a, b, ds.dups.contains((a, b))) }
          }
          newly.foreach { lp =>
            val key = (lp.rId, lp.sId)
            if (ds.testSet.contains(key)) problems += s"round $round: labeled test pair $key"
            if (labeledSet.contains(key)) problems += s"round $round: labeled $key twice"
          }
          selected += newly.size
          selectedPos += newly.count(_.y)
          t = t ++ newly
          newly.foreach(lp => labeledSet += ((lp.rId, lp.sId)))
        }
        last = (matcher, views, idx, cand)
      }
    }
    if (sDfCache != null) { sDfCache.unpersist(); sDfCache = null }

    val candPairs = mutable.HashSet.empty[(Int, Int)]
    cands.zipWithIndex.foreach { case (cand, i) =>
      val keys = cand.map(c => (c.rId, c.sId))
      if (keys.distinct.size != keys.size) problems += s"round ${i + 1}: CAND holds duplicate pairs"
      if (cand.size > dial.candSize) problems += s"round ${i + 1}: |CAND| ${cand.size} > candSize ${dial.candSize}"
      candPairs ++= keys
    }

    ReplayOutcome(
      stats = stats.toIndexedSeq, nLabeled = t.length, problems = problems.toSeq,
      matcherExampleEpochs = exampleEpochs, committeeMemberSteps = memberSteps,
      indexVectors = vectors, retrievalProbes = probes, candTotal = candTotal,
      driverScalars = scalarCache.size.toLong,
      distinctFeaturised = (candPairs ++ scalarCache.keys).size.toLong,
      selected = selected, selectedPositives = selectedPos,
      finalMatcher = last._1, finalPositives = t.filter(_.y),
      finalViews = last._2, finalIndexes = last._3, finalCand = last._4)
  }
}
