package repro.core

import repro.SparkSpec
import repro.data.{ERDataGen, ERDataset, Rec}
import repro.forest.RfAl

/** Degenerate inputs to whole runs: each case either runs to a defined
  * outcome or fails with a message that names the dataset and, where the
  * blocker is the cause, the blocker mode.
  */
class DegenerateInputSpec extends SparkSpec {
  private lazy val ds = ERDataGen.amazonGoogle(scale = 0.1)
  private val cfg = DialConfig(rounds = 1, budget = 8, seedPos = 6, seedNeg = 6, committeeN = 2,
                               matcherEpochs = 3, blockerEpochs = 4, embedDim = 16)

  private def failure(ds: ERDataset, cfg: DialConfig): String =
    intercept[IllegalArgumentException](new Dial(spark, ds, cfg).run()).getMessage

  test("with no duplicate outside the test split, the committee modes fail naming the dataset and mode") {
    val noDups = ds.copy(dups = ds.dups.filter(ds.testSet))
    Seq(IbcMode, SentenceBertMode).foreach { mode =>
      val msg = failure(noDups, cfg.copy(blockerMode = mode))
      assert(msg.contains(s"dataset Amazon-Google: the ${mode.name} blocker trains on labeled duplicates"), msg)
    }
    // the modes without a trained blocker, and the Random Forest, label negatives only
    Seq(PairedFixedMode, PairedAdaptMode, RulesMode).foreach { mode =>
      val r = new Dial(spark, noDups, cfg.copy(blockerMode = mode)).run()
      assert(r.roundStats.map(_.nLabeled) == IndexedSeq(6, 6 + 8), mode.name)
      assert(r.allPRF.tp == 0, mode.name)
    }
    val rf = RfAl.run(spark, noDups, rounds = 1, budget = 8)
    assert(rf.roundStats.map(_.nLabeled) == IndexedSeq(64, 64 + 8) && rf.allPRF.tp == 0)
  }

  test("LabeledNegs with seedNeg = 0 fails naming the dataset and mode; RandomNegs runs") {
    Seq(cfg.copy(negMode = LabeledNegs), cfg.copy(blockerMode = SentenceBertMode)).foreach { c =>
      val msg = failure(ds, c.copy(seedNeg = 0))
      assert(msg.contains(s"dataset Amazon-Google: the ${c.blockerMode.name} blocker trains on labeled negatives"), msg)
    }
    val r = new Dial(spark, ds, cfg.copy(seedNeg = 0)).run()
    assert(r.roundStats.map(_.nLabeled) == IndexedSeq(6, 6 + 8))
  }

  test("lists smaller than k run, and each probe retrieves the whole other list") {
    val tiny = ERDataset("tiny", IndexedSeq("title"),
      r = IndexedSeq(Rec(0, IndexedSeq("zorvex kx2741 headset")), Rec(1, IndexedSeq("zorvex pl900 speaker"))),
      s = IndexedSeq(Rec(0, IndexedSeq("zorvex kx2741 headset black")), Rec(1, IndexedSeq("zorvex pl900 speaker"))),
      dups = Set((0, 0), (1, 1)), testPairs = IndexedSeq.empty)
    val r = new Dial(spark, tiny, cfg.copy(k = 3, seedPos = 1, seedNeg = 1)).run()
    assert(r.roundStats.map(_.nLabeled) == IndexedSeq(2, 4))
    assert(r.roundStats.forall(_.candRecall == 100.0))
  }

  test("a budget above |CAND| labels every selectable candidate once") {
    val c = cfg.copy(blockerMode = PairedFixedMode, rounds = 2, budget = 10 * ds.s.size)
    val dial = new Dial(spark, ds, c)
    val views = IndexedSeq(new PlainView)
    val cand = Blocker.retrieveCand(dial.embedder.sBase, views,
      Blocker.buildIndexes(dial.embedder.rBase, views), c.k, dial.candSize).map(p => (p.rId, p.sId))
    val seed = dial.seedSet().map(lp => (lp.rId, lp.sId)).toSet
    val selectable = cand.count(p => !seed(p) && !ds.testSet(p))
    val r = dial.run()
    assert(r.roundStats.map(_.nLabeled) == IndexedSeq(12, 12 + selectable, 12 + selectable))
    // DIAL's CAND changes per round; each round labels at most all of it
    val ibc = new Dial(spark, ds, c.copy(blockerMode = IbcMode)).run()
    val gains = ibc.roundStats.map(_.nLabeled).sliding(2).map(p => p(1) - p(0)).toSeq
    assert(gains.forall(g => g > 0 && g <= dial.candSize), gains)
  }

  test("records whose attributes are all empty embed to zero and still run") {
    def blank(recs: IndexedSeq[Rec]) =
      recs.map(rec => if (rec.id % 3 == 0) rec.copy(attrs = rec.attrs.map(_ => "")) else rec)
    val someBlank = ds.copy(r = blank(ds.r), s = blank(ds.s))
    assert(new Dial(spark, someBlank, cfg).embedder.rBase(0).forall(_ == 0.0))
    val r = new Dial(spark, someBlank, cfg).run()
    assert(r.roundStats.map(_.nLabeled) == IndexedSeq(12, 12 + 8))
    assert(RfAl.run(spark, someBlank, rounds = 0).roundStats.length == 1)
    // with every record blank no hard negative exists, so the seed set cannot fill
    val allBlank = ds.copy(r = ds.r.map(_.copy(attrs = IndexedSeq("", "", ""))),
                           s = ds.s.map(_.copy(attrs = IndexedSeq("", "", ""))))
    assert(failure(allBlank, cfg).contains("dataset Amazon-Google: found 0 of 6 seed negatives"))
  }
}
