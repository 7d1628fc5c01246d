package repro.core

import repro.SparkSpec
import repro.data.ERDataGen
import repro.forest.RfAl
import repro.jedai.JedaiPipelines

/** Exact outcomes of two small AL runs and of both JedAI workflows, pinned
  * as literals: every `RoundStat`, |T| and the final tp/fp/fn counts, in the
  * benchmark's fingerprint format. A refactor that moves any bit of a run
  * fails here. The AL literals were recorded before the AL loop was shared
  * by `Dial` and `RfAl`, the JedAI ones before the JedAI workflows ran
  * through that loop.
  */
class OutcomePinSpec extends SparkSpec {
  private lazy val wa = ERDataGen.walmartAmazon(scale = 0.08)

  private def fingerprint(r: RunResult): String = {
    def counts(p: PRF) = s"${p.tp}/${p.fp}/${p.fn}"
    (r.roundStats.map(s => s"${s.round}:${s.nLabeled}:${s.candRecall}:${s.testF1}:${s.allF1}") :+
      s"final:${r.nLabeled}:${r.candRecall}:${counts(r.allPRF)}:${counts(r.testPRF)}").mkString(" ")
  }

  test("a small IBC + QBC DIAL run repeats its pinned outcome") {
    val cfg = DialConfig(selector = QbcSel, rounds = 2, budget = 32, seedPos = 16, seedNeg = 16,
                         matcherEpochs = 8, blockerEpochs = 20, embedDim = 32)
    assert(fingerprint(new Dial(spark, wa, cfg).run()) ==
      "1:32:82.6086956521739:66.66666666666667:60.0 2:64:82.6086956521739:85.71428571428571:70.58823529411765 " +
      "3:96:86.95652173913044:85.71428571428571:80.0 final:96:86.95652173913044:16/1/7:3/0/1")
  }

  test("a small Random Forest run repeats its pinned outcome") {
    assert(fingerprint(RfAl.run(spark, wa, rounds = 2, budget = 32)) ==
      "1:83:91.30434782608695:100.0:68.85245901639344 2:115:91.30434782608695:100.0:87.5 " +
      "3:147:91.30434782608695:100.0:90.47619047619047 final:147:91.30434782608695:19/0/4:4/0/0")
  }

  test("the schema-based JedAI workflow repeats its pinned outcome") {
    assert(fingerprint(JedaiPipelines.schemaBased(spark, wa)) ==
      "1:0:100.0:85.71428571428571:50.0 final:0:100.0:14/19/9:3/0/1")
  }

  test("the schema-agnostic JedAI workflow repeats its pinned outcome") {
    assert(fingerprint(JedaiPipelines.schemaAgnostic(spark, wa)) ==
      "1:0:100.0:85.71428571428571:42.307692307692314 final:0:100.0:11/18/12:3/0/1")
  }
}
