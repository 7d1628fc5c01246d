package repro.forest

import repro.SparkSpec
import repro.core.{Dial, DialConfig, Metrics}
import repro.data.ERDataGen
import repro.rules.RulesBlocker

/** The Random-Forest AL baseline end to end on a small W-A. */
class RfAlSpec extends SparkSpec {
  private lazy val wa = ERDataGen.walmartAmazon(scale = 0.08)
  private lazy val cand = RulesBlocker.candidates(spark, wa)

  /** Rule candidates outside the seed set (the run's default config) and the test split. */
  private lazy val selectable: Int = {
    val seed = new Dial(spark, wa, DialConfig()).seedSet().map(lp => (lp.rId, lp.sId)).toSet
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

  test("a budget above the selectable pairs labels every one of them and no test pair") {
    assert(cand.exists(wa.testSet.contains), "no test pair among the candidates")
    val r = RfAl.run(spark, wa, rounds = 1, budget = cand.size)
    assert(r.roundStats(1).nLabeled - r.roundStats(0).nLabeled == selectable)
  }
}
