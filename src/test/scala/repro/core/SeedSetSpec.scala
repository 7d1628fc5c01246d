package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ERDataGen, ERDataset, Rec}

/** The seed-set sampler, which every AL method starts from: a dataset that
  * yields fewer than `seedNeg` negatives fails, naming the dataset and both
  * counts, instead of seeding a short T; and the sampler reads the embedder
  * only for the multilingual dataset, so DIAL and the Random Forest draw the
  * same T at the same config seed.
  */
class SeedSetSpec extends AnyFunSuite {
  test("a dataset whose S tokens no R record shares fails with both negative counts") {
    // every hard draw finds no R record, and the hard/random alternation
    // moves on only after a hard negative is found
    val ds = ERDataset("disjoint", IndexedSeq("title"),
      r = IndexedSeq(Rec(0, IndexedSeq("zorvex headset")), Rec(1, IndexedSeq("zorvex speaker"))),
      s = IndexedSeq(Rec(0, IndexedSeq("plumbo dishwasher")), Rec(1, IndexedSeq("plumbo kettle"))),
      dups = Set((0, 0)), testPairs = IndexedSeq.empty)
    val e = intercept[IllegalArgumentException](
      ActiveLearning.seedSet(ds, DialConfig(seedPos = 1, seedNeg = 2, embedDim = 8), fail("embedder read")))
    assert(e.getMessage.contains("dataset disjoint: found 0 of 2 seed negatives"), e.getMessage)
  }

  test("DIAL's and the Random Forest's T are equal for equal config seeds") {
    // DIAL passes its embedder; the Random Forest has none to pass
    val wa = ERDataGen.walmartAmazon(scale = 0.08)
    Seq(7L, 19L).foreach { seed =>
      val cfg = DialConfig(seed = seed)
      val dialT = ActiveLearning.seedSet(wa, cfg, Dial.embedderFor(wa, cfg.embedDim))
      assert(dialT.exists(_.y) && dialT.count(!_.y) == cfg.seedNeg)
      assert(ActiveLearning.seedSet(wa, cfg, fail("the Random Forest's seed set read an embedder")) == dialT)
    }
  }
}
