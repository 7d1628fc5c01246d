package repro.forest

import repro.SparkSpec
import repro.core.{ActiveLearning, DialConfig, Metrics}
import repro.data.ERDataGen
import repro.rules.RulesBlocker
import repro.util.Rnd

/** The Random-Forest AL baseline end to end on a small W-A. */
class RfAlSpec extends SparkSpec {
  private lazy val wa = ERDataGen.walmartAmazon(scale = 0.08)
  private lazy val cand = RulesBlocker.candidates(spark, wa)

  /** The run's seed set, from the sampler every AL method starts from. */
  private lazy val seedSet = ActiveLearning.seedSet(wa, DialConfig(seed = RfAl.Seed), fail("embedder read"))

  /** Rule candidates outside the seed set and the test split. */
  private lazy val selectable: Int = {
    val seed = seedSet.map(lp => (lp.rId, lp.sId)).toSet
    cand.count(p => !seed.contains(p) && !wa.testSet.contains(p))
  }

  test("one round labels min(B, selectable) pairs and is deterministic") {
    val a = RfAl.run(spark, wa, rounds = 1, budget = 16)
    val b = RfAl.run(spark, wa, rounds = 1, budget = 16)
    assert(a.roundStats.length == 2)
    assert(a.roundStats(1).nLabeled - a.roundStats(0).nLabeled == math.min(16, selectable))
    assert(a.nLabeled == a.roundStats.last.nLabeled)
    assert(a.candRecall == Metrics.candRecall(cand, wa.dups))
    assert(a.roundStats == b.roundStats)
    assert(a.testPRF == b.testPRF && a.allPRF == b.allPRF)
  }

  test("the reported PRF is that of every candidate the forest votes a duplicate") {
    // with no labeling round the only forest is trained on the seed set
    def features(rId: Int, sId: Int) = SimFeatures.features(wa.r(rId).attrs, wa.s(sId).attrs)
    val forest = RandomForest.fit(seedSet.map(lp => features(lp.rId, lp.sId)),
      seedSet.map(lp => if (lp.y) 1.0 else 0.0), Rnd.combine(RfAl.Seed, 1))
    val predicted = cand.filter { case (a, b) => forest.voteFraction(features(a, b)) > 0.5 }.toSet
    assert(predicted.map(_._1).size < predicted.size, "no two predicted pairs share an R record")
    val r = RfAl.run(spark, wa, rounds = 0)
    assert(r.allPRF == Metrics.allPairs(predicted, wa.dups))
    assert(r.testPRF == Metrics.testEval(wa.testPairs, predicted))
  }

  test("a budget above the selectable pairs labels every one of them and no test pair") {
    assert(cand.exists(wa.testSet.contains), "no test pair among the candidates")
    val r = RfAl.run(spark, wa, rounds = 1, budget = cand.size)
    assert(r.roundStats(1).nLabeled - r.roundStats(0).nLabeled == selectable)
  }
}
