package repro.core

import repro.SparkSpec
import repro.data.{ERDataset, Rec}

/** The seed set's negatives: a dataset that yields fewer than `seedNeg`
  * fails, naming the dataset and both counts, instead of seeding a short T.
  */
class SeedSetSpec extends SparkSpec {
  test("a dataset whose S tokens no R record shares fails with both negative counts") {
    // every hard draw finds no R record, and the hard/random alternation
    // moves on only after a hard negative is found
    val ds = ERDataset("disjoint", IndexedSeq("title"),
      r = IndexedSeq(Rec(0, IndexedSeq("zorvex headset")), Rec(1, IndexedSeq("zorvex speaker"))),
      s = IndexedSeq(Rec(0, IndexedSeq("plumbo dishwasher")), Rec(1, IndexedSeq("plumbo kettle"))),
      dups = Set((0, 0)), testPairs = IndexedSeq.empty)
    val dial = new Dial(spark, ds, DialConfig(seedPos = 1, seedNeg = 2, embedDim = 8))
    val e = intercept[IllegalArgumentException](dial.seedSet())
    assert(e.getMessage.contains("dataset disjoint: found 0 of 2 seed negatives"), e.getMessage)
  }
}
