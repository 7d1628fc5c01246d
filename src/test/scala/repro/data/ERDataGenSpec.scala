package repro.data

import org.scalatest.funsuite.AnyFunSuite

class ERDataGenSpec extends AnyFunSuite {
  // Small scale keeps the unit suite fast; structure is scale-invariant.
  private lazy val wa = ERDataGen.walmartAmazon(scale = 0.25)
  private lazy val ag = ERDataGen.amazonGoogle(scale = 0.25)
  private lazy val da = ERDataGen.dblpAcm(scale = 0.25)
  private lazy val dsch = ERDataGen.dblpScholar(scale = 0.1)
  private lazy val ab = ERDataGen.abtBuy(scale = 0.25)
  private lazy val ml = ERDataGen.multilingual(150, 60, seed = 16)
  private lazy val all = Seq(wa, ag, da, dsch, ab, ml)

  test("generation is deterministic in seed") {
    val a = ERDataGen.walmartAmazon(scale = 0.1)
    val b = ERDataGen.walmartAmazon(scale = 0.1)
    assert(a.r == b.r && a.s == b.s && a.dups == b.dups && a.testPairs == b.testPairs)
  }

  test("different seeds change the data") {
    val a = ERDataGen.walmartAmazon(seed = 11, scale = 0.1)
    val b = ERDataGen.walmartAmazon(seed = 99, scale = 0.1)
    assert(a.r != b.r)
  }

  test("record ids are positions in their list") {
    all.foreach { ds =>
      assert(ds.r.zipWithIndex.forall { case (rec, i) => rec.id == i }, ds.name)
      assert(ds.s.zipWithIndex.forall { case (rec, i) => rec.id == i }, ds.name)
    }
  }

  test("a list whose ids are not their positions fails, naming the dataset, the list and the index") {
    val swapped = IndexedSeq(Rec(1, IndexedSeq("b")), Rec(0, IndexedSeq("a")))
    val e = intercept[IllegalArgumentException](
      ERDataset("swapped", IndexedSeq("title"), r = IndexedSeq(Rec(0, IndexedSeq("a"))), s = swapped,
                dups = Set.empty, testPairs = IndexedSeq.empty))
    assert(e.getMessage.contains("dataset swapped: the S list's record at position 0 has id 1"), e.getMessage)
  }

  test("attrs align with schema") {
    all.foreach(ds => assert(ds.r.forall(_.attrs.length == ds.schema.length) &&
                             ds.s.forall(_.attrs.length == ds.schema.length), ds.name))
  }

  test("dups reference valid ids") {
    all.foreach { ds =>
      assert(ds.dups.forall { case (a, b) => a >= 0 && a < ds.r.size && b >= 0 && b < ds.s.size }, ds.name)
    }
  }

  test("every S record is duplicate of at most its recorded partners") {
    // each S id appears in dups at most dupsPerEntityMax... sanity: S side unique per pair
    all.foreach { ds =>
      val bySid = ds.dups.groupBy(_._2)
      assert(bySid.values.forall(_.size == 1), s"${ds.name}: an S record matched several R records")
    }
  }

  test("requested sizes are honoured") {
    assert(wa.r.size == 150 && wa.s.size == 1100)
    assert(ab.r.size == 135 && ab.s.size == 137)
    assert(ml.r.size == 150 && ml.s.size == 150)
  }

  test("duplicate counts near the knob") {
    assert(wa.dups.size == 72, wa.dups.size.toString)  // sc(290, .25)
    assert(ml.dups.size == 150)
  }

  test("multilingual is exactly parallel: |DUPS| = |R| = |S|") {
    assert(ml.dups.size == ml.r.size && ml.dups.size == ml.s.size)
  }

  test("test pairs have valid ids, labels agree with gold") {
    all.foreach { ds =>
      ds.testPairs.foreach { t =>
        assert(t.rId >= 0 && t.rId < ds.r.size && t.sId >= 0 && t.sId < ds.s.size)
        assert(t.label == ds.dups.contains((t.rId, t.sId)), s"${ds.name} ${t}")
      }
    }
  }

  test("test pairs are distinct") {
    all.foreach { ds =>
      val keys = ds.testPairs.map(t => (t.rId, t.sId))
      assert(keys.distinct.size == keys.size, ds.name)
    }
  }

  test("test split positives are capped at DeepMatcher-like fractions") {
    all.foreach { ds =>
      val frac = ds.testPairs.count(_.label).toDouble / ds.testPairs.size
      // min(nTest/4, |DUPS|/5) positives: between ~10% (dup-scarce product
      // sets) and 25% of the split
      assert(frac > 0.08 && frac <= 0.30, s"${ds.name} positive fraction $frac")
      assert(ds.testPairs.count(_.label) <= ds.dups.size / 5 + 1, ds.name)
    }
  }

  test("duplicates share most tokens with their R record") {
    Seq(wa, ag, da).foreach { ds =>
      val overlaps = ds.dups.toSeq.take(50).map { case (rid, sid) =>
        repro.text.Tokenizer.overlap(ds.rById(rid).tokenSet, ds.sById(sid).tokenSet)
      }
      val mean = overlaps.sum / overlaps.size
      // boilerplate filler dilutes the sets; dup overlap stays well above
      // the random-pair level (~0.1) but below the pre-filler 0.5+
      assert(mean > 0.35, s"${ds.name} mean dup overlap $mean")
    }
  }

  test("random R-S pairs share few tokens") {
    val g = new repro.util.Rnd.Gen(1)
    Seq(wa, da).foreach { ds =>
      val ovs = (1 to 100).map { _ =>
        val r = ds.r(g.nextInt(ds.r.size)); val s = ds.s(g.nextInt(ds.s.size))
        if (ds.dups.contains((r.id, s.id))) 0.0
        else repro.text.Tokenizer.jaccard(r.tokenSet, s.tokenSet)
      }
      assert(ovs.sum / ovs.size < 0.2, ds.name)
    }
  }

  test("DBLP-ACM is cleaner than DBLP-Scholar (dup token overlap)") {
    def meanOverlap(ds: ERDataset): Double = {
      val os = ds.dups.toSeq.take(100).map { case (rid, sid) =>
        repro.text.Tokenizer.overlap(ds.rById(rid).tokenSet, ds.sById(sid).tokenSet)
      }
      os.sum / os.size
    }
    assert(meanOverlap(da) > meanOverlap(dsch))
  }

  test("abt-buy schema is textual") {
    assert(ab.schema == IndexedSeq("description", "price"))
    assert(wa.schema == IndexedSeq("title", "brand", "price"))
    assert(da.schema == IndexedSeq("title", "authors", "venue", "year"))
  }

  test("multilingual German side maps through the lexicon") {
    assert(ml.germanToEnglish.nonEmpty)
    // a German content token should be in the lexicon (or be a number/tag)
    val s0 = ml.s.head
    val toks = repro.text.Tokenizer.tokens(s0.attrs.head)
    val known = toks.count(t => ml.germanToEnglish.contains(t) || t.forall(_.isDigit) ||
                                Seq("b", "ref", "code").contains(t))
    assert(known.toDouble / toks.length > 0.8, s"tokens $toks")
  }

  test("pseudoGerman is deterministic and changes the word") {
    assert(Vocab.pseudoGerman("house") == Vocab.pseudoGerman("house"))
    assert(Vocab.pseudoGerman("house") != "house")
  }

  test("benchmarks helper returns the five datasets in paper order") {
    val names = ERDataGen.benchmarks(0.1).map(_.name)
    assert(names == IndexedSeq("Walmart-Amazon", "Amazon-Google", "DBLP-ACM",
                               "DBLP-Scholar", "Abt-Buy"))
  }

  test("dup density is sparse (products) and dense on Abt-Buy") {
    def density(ds: ERDataset) = ds.dups.size.toDouble / (ds.r.size.toDouble * ds.s.size)
    assert(density(wa) < density(ab))
  }

  test("Vocab words are distinct and pronounceable-ish") {
    val v = new Vocab(1)
    val ws = v.words(100, 2)
    assert(ws.distinct.size == 100)
    assert(ws.forall(w => w.nonEmpty && w.forall(_.isLetter)))
  }

  test("Vocab model numbers contain digits") {
    val v = new Vocab(2)
    (1 to 20).foreach(_ => assert(v.modelNumber().exists(_.isDigit)))
  }
}
