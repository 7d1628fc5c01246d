package repro.core

import org.scalacheck.{Gen, Prop, Test}
import repro.SparkSpec
import repro.data.ERDataGen

/** A whole `Dial` run is a function of its config and dataset: over tiny
  * generated datasets and varied configs, two fresh `Dial`s give equal
  * results, and so does a second `run()` on one `Dial`. Results are compared
  * without their wall-clock stage times.
  */
class DialDeterminismSpec extends SparkSpec {

  private val generators = Map("W-A" -> ERDataGen.walmartAmazon _, "A-G" -> ERDataGen.amazonGoogle _,
                               "D-A" -> ERDataGen.dblpAcm _)

  // the dataset as (generator, seed, scale), so that a failure prints it briefly
  private val genCase = for {
    gen <- Gen.oneOf(generators.keys.toSeq.sorted)
    dsSeed <- Gen.choose(1L, 1000L)
    scale <- Gen.choose(0.04, 0.07)
    mode <- Gen.oneOf(IbcMode, SentenceBertMode, PairedAdaptMode)
    negMode <- Gen.oneOf(RandomNegs, LabeledNegs)
    selector <- Gen.oneOf(UncertaintySel, RandomSel, QbcSel, BadgeSel, Partition2)
    seed <- Gen.long
  } yield ((gen, dsSeed, scale),
           DialConfig(blockerMode = mode, committeeN = 2, negMode = negMode, selector = selector,
                      rounds = 1, budget = 8, seedPos = 6, seedNeg = 6, matcherEpochs = 3,
                      blockerEpochs = 4, embedDim = 16, seed = seed))

  test("a Dial run is determined by its config and dataset, also when run twice (scalacheck)") {
    def metrics(r: RunResult) = r.copy(stageTimes = IndexedSeq.empty)
    val prop = Prop.forAllNoShrink(genCase) { case ((gen, dsSeed, scale), cfg) =>
      val ds = generators(gen)(dsSeed, scale)
      val dial = new Dial(spark, ds, cfg)
      val first = metrics(dial.run())
      first == metrics(dial.run()) && first == metrics(new Dial(spark, ds, cfg).run())
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(6).withWorkers(1), prop)
    assert(res.passed, res.status.toString)
  }
}
