package repro.core

import repro.SparkSpec
import repro.data.{ERDataGen, ERDataset, Rec, TestPair}
import repro.forest.RfAl
import repro.jedai.JedaiPipelines

/** The run report that [[ActiveLearning.run]] builds for every method: one
  * stage record per round, Table 9's rule (the last labeling round, with
  * selection = scoring + the selector call) and the find-all rule (the
  * final pass's retrieval + scoring) over them.
  */
class RunReportSpec extends SparkSpec {
  private lazy val ag = ERDataGen.amazonGoogle(scale = 0.12)
  private lazy val wa = ERDataGen.walmartAmazon(scale = 0.08)
  private val cfg = DialConfig(rounds = 2, budget = 16, seedPos = 12, seedNeg = 12,
                               matcherEpochs = 6, blockerEpochs = 12, embedDim = 32)

  private def findAllRule(r: RunResult): Boolean =
    r.findAllSec == r.stageTimes.last.retrieveSec + r.stageTimes.last.scoreSec &&
      r.stageTimes.last.selectorSec == 0.0

  test("a rounds = 2 DIAL run reads Tables 9 and 10 from one stage record per round") {
    val r = new Dial(spark, ag, cfg).run()
    assert(r.roundStats.length == 3 && r.stageTimes.length == r.roundStats.length)
    assert(findAllRule(r) && r.findAllSec > 0.0)
    val round2 = r.stageTimes(1)
    assert(r.lastTimes == round2)
    assert(r.lastTimes.selectionSec == round2.scoreSec + round2.selectorSec)
    r.stageTimes.take(2).foreach { st =>
      assert(Seq(st.matcherSec, st.committeeSec, st.retrieveSec, st.scoreSec, st.selectorSec).forall(_ > 0.0), st)
    }
  }

  test("a rounds = 0 DIAL run reports zeros for Table 9") {
    val r = new Dial(spark, ag, cfg.copy(rounds = 0)).run()
    assert(r.stageTimes.length == 1 && r.lastTimes == StageTimes(0, 0, 0, 0))
    assert(findAllRule(r) && r.findAllSec > 0.0)
  }

  test("the Random Forest and both JedAI workflows report through the same rules") {
    val rf = RfAl.run(spark, wa, rounds = 1, budget = 16)
    assert(rf.stageTimes.length == 2 && rf.lastTimes == rf.stageTimes.head && findAllRule(rf))
    assert(rf.lastTimes.matcherSec > 0.0 && rf.lastTimes.committeeSec == 0.0)
    Seq(JedaiPipelines.schemaBased(spark, wa), JedaiPipelines.schemaAgnostic(spark, wa)).foreach { j =>
      assert(j.stageTimes.length == 1 && j.roundStats.length == 1, j.method)
      assert(j.lastTimes == StageTimes(0, 0, 0, 0) && findAllRule(j) && j.findAllSec > 0.0, j.method)
    }
  }

  test("the loop times the selector call and keeps each round's own stage seconds") {
    val recs = IndexedSeq(Rec(0, IndexedSeq("a")), Rec(1, IndexedSeq("b")))
    val tiny = ERDataset("tiny", IndexedSeq("title"), recs, recs, Set((0, 0)), IndexedSeq(TestPair(1, 1, label = false)))
    val cand = for (r <- 0 to 1; s <- 0 to 1) yield (r, s)
    val r = ActiveLearning.run("stub", tiny, IndexedSeq.empty, rounds = 2, budget = 1) { (_, round) =>
      ActiveLearning.Round(cand, cand.map(_ => 0.5), (idx, b) => { Thread.sleep(30); idx.take(b).map(cand) },
                           StageTimes(round, 2.0, 3.0, 4.0))
    }
    assert(r.stageTimes.map(_.copy(selectorSec = 0.0)) == (1 to 3).map(i => StageTimes(i, 2.0, 3.0, 4.0)))
    assert(r.stageTimes.take(2).forall(_.selectorSec >= 0.03) && r.stageTimes(2).selectorSec == 0.0)
    assert(r.lastTimes == r.stageTimes(1) && r.lastTimes.selectionSec == 4.0 + r.stageTimes(1).selectorSec)
    assert(r.findAllSec == 7.0)
  }

  test("a negative round count fails, naming the method and the dataset") {
    val e = intercept[IllegalArgumentException](
      ActiveLearning.run("stub", wa, IndexedSeq.empty, rounds = -1, budget = 0)((_, _) => fail("no round runs")))
    assert(e.getMessage.contains("stub on Walmart-Amazon: rounds = -1"))
  }
}
