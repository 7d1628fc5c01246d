package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.SparkSpec
import repro.data.ERDataGen
import repro.index.SparkKnn
import repro.rules.RulesBlocker
import repro.text.HashEmbedding
import repro.util.Rnd

/** End-to-end mini AL runs exercising Algorithm 1 and every blocking mode. */
class DialIntegrationSpec extends SparkSpec {
  private lazy val ds = ERDataGen.amazonGoogle(scale = 0.12)
  private val fastCfg = DialConfig(rounds = 1, budget = 16, seedPos = 12, seedNeg = 12,
                                   matcherEpochs = 6, blockerEpochs = 12, embedDim = 32)

  test("seed set has the requested composition and avoids the test split") {
    val dial = new Dial(spark, ds, fastCfg)
    val seed = dial.seedSet()
    assert(seed.count(_.y) == 12)
    assert(seed.count(!_.y) == 12)
    seed.foreach { lp =>
      assert(lp.y == ds.dups.contains((lp.rId, lp.sId)))
      assert(!ds.testSet.contains((lp.rId, lp.sId)))
    }
    assert(seed.map(lp => (lp.rId, lp.sId)).distinct.size == seed.size)
  }

  test("DIAL run completes with consistent bookkeeping") {
    val r = new Dial(spark, ds, fastCfg).run()
    assert(r.method == "DIAL")
    assert(r.roundStats.length == fastCfg.rounds + 1)
    assert(r.nLabeled == 24 + fastCfg.rounds * fastCfg.budget)
    assert(r.candRecall >= 0.0 && r.candRecall <= 100.0)
    assert(r.allPRF.tp + r.allPRF.fn == ds.dups.size)
    assert(r.findAllSec > 0.0)
    assert(r.roundStats.last.nLabeled == r.nLabeled)
  }

  test("labeled set grows by the budget each round") {
    val r = new Dial(spark, ds, fastCfg.copy(rounds = 2)).run()
    assert(r.roundStats.map(_.nLabeled) == IndexedSeq(24, 24 + 16, 24 + 32))
  }

  test("active learning improves all-pairs F1 over the first round") {
    val r = new Dial(spark, ds, fastCfg.copy(rounds = 2, budget = 32,
                                             matcherEpochs = 12, blockerEpochs = 30)).run()
    assert(r.roundStats.last.allF1 >= r.roundStats.head.allF1 - 8.0,
      s"F1 collapsed: ${r.roundStats.map(_.allF1)}")
  }

  test("PairedFixed keeps a fixed candidate recall across rounds") {
    val r = new Dial(spark, ds, fastCfg.copy(rounds = 2, blockerMode = PairedFixedMode)).run()
    assert(r.roundStats.map(_.candRecall).distinct.size == 1)
  }

  test("all blocking modes run end-to-end") {
    Seq(PairedAdaptMode, SentenceBertMode, RulesMode).foreach { mode =>
      val r = new Dial(spark, ds, fastCfg.copy(blockerMode = mode)).run()
      assert(r.method == mode.name)
      assert(r.roundStats.nonEmpty, mode.name)
    }
  }

  test("run is deterministic in config seed (metrics, not timings)") {
    def strip(r: RunResult) = (r.roundStats, r.candRecall, r.testPRF, r.allPRF, r.nLabeled)
    Seq(IbcMode, PairedFixedMode, PairedAdaptMode, SentenceBertMode, RulesMode).foreach { mode =>
      val cfg = fastCfg.copy(blockerMode = mode)
      assert(strip(new Dial(spark, ds, cfg).run()) == strip(new Dial(spark, ds, cfg).run()), mode.name)
    }
    // a committee larger than the core count trains its members in waves
    val wide = fastCfg.copy(committeeN = 10)
    assert(strip(new Dial(spark, ds, wide).run()) == strip(new Dial(spark, ds, wide).run()))
  }

  test("driver scoring equals SparkKnn.scorePairs with MatcherScorer on one CAND") {
    val dial = new Dial(spark, ds, fastCfg)
    val featurizer = dial.embedder.featurizer
    val data = dial.seedSet().map { lp =>
      val (r, s) = (ds.r(lp.rId).attrs, ds.s(lp.sId).attrs)
      TrainEx(dial.embedder.rBase(lp.rId), dial.embedder.sBase(lp.sId), featurizer.scalars(r, s),
              if (lp.y) 1.0 else 0.0)
    }
    val matcher = new Matcher(fastCfg.embedDim, 5L)
    matcher.train(data, epochs = 6, batch = 16, new Rnd.Gen(6L))
    val views = IndexedSeq(new PlainView)
    val cand = Blocker.retrieveCand(dial.embedder.sBase, views,
      Blocker.buildIndexes(dial.embedder.rBase, views), fastCfg.k, dial.candSize)
    val candDf = spark.createDataFrame(
      spark.sparkContext.parallelize(cand.map(c => Row(c.rId, c.sId)), 3),
      StructType(Array(StructField("rid", IntegerType, nullable = false),
                       StructField("sid", IntegerType, nullable = false))))
    val onSpark = SparkKnn.scorePairs(spark, candDf, ds.r.map(x => x.id -> x.attrs).toMap,
        ds.s.map(x => x.id -> x.attrs).toMap, new MatcherScorer(dial.emb, featurizer, matcher))
      .collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    val (onDriver, _) = dial.scoreCand(matcher, cand)
    assert(cand.nonEmpty && onDriver.length == cand.length && onSpark.size == cand.length)
    onDriver.zip(cand).foreach { case ((sc, _), c) =>
      assert((sc.rId, sc.sId, sc.dist) == (c.rId, c.sId, c.dist))
      assert(sc.prob == onSpark((c.rId, c.sId)), s"pair (${c.rId}, ${c.sId})")
    }
  }

  test("different selectors select different labels but all complete") {
    Seq(RandomSel, GreedySel, Partition2, BadgeSel).foreach { st =>
      val r = new Dial(spark, ds, fastCfg.copy(selector = st)).run()
      assert(r.nLabeled == 24 + fastCfg.budget, st.name)
    }
  }

  test("candSizeOverride caps the candidate set") {
    val r = new Dial(spark, ds, fastCfg.copy(candSizeOverride = Some(40)))
    assert(r.candSize == 40)
  }

  test("multilingual seed construction via pretrained NN probing works") {
    val ml = ERDataGen.multilingual(120, 40, seed = 3)
    val dial = new Dial(spark, ml, fastCfg.copy(trainG = false, seedPos = 8, seedNeg = 8))
    val seed = dial.seedSet()
    assert(seed.count(_.y) == 8)
    assert(seed.count(!_.y) == 8)
  }

  test("timedFindAll returns a positive duration and scales to N=4") {
    val sec = new Dial(spark, ds, fastCfg.copy(committeeN = 2)).timedFindAll()
    assert(sec > 0.0)
  }

  test("per-dataset memos tell apart datasets of equal name and sizes") {
    val a = ERDataGen.walmartAmazon(seed = 11, scale = 0.05)
    val b = ERDataGen.walmartAmazon(seed = 12, scale = 0.05)
    assert(a.name == b.name && a.r.size == b.r.size && a.s.size == b.s.size && a.r != b.r)
    new Dial(spark, a, fastCfg)
    val rulesA = Dial.rulesFor(spark, a).sorted
    val fresh = new Embedder(new HashEmbedding(fastCfg.embedDim, 42L, b.germanToEnglish), b)
    assert(new Dial(spark, b, fastCfg).embedder.rBase.map(_.toSeq).toSeq == fresh.rBase.map(_.toSeq).toSeq)
    val rulesB = RulesBlocker.candidates(spark, b).sorted
    assert(rulesB != rulesA)
    assert(Dial.rulesFor(spark, b).sorted == rulesB)
  }
}
