package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ERDataGen, ERDataset, Rec}
import repro.text.HashEmbedding
import repro.util.Rnd

/** The dataset's token dictionary in [[Embedder]] changes no feature: its
  * IDF equals the token-set reference `PairFeatures.idfFrom` bit for bit,
  * and the profiles it assembles give exactly the features of
  * [[PairFeaturizer]]'s per-call profiles.
  */
class TokenDictionarySpec extends AnyFunSuite {

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def embedder(ds: ERDataset) = new Embedder(new HashEmbedding(64, 42L, ds.germanToEnglish), ds)

  private def idfOf(ds: ERDataset): Map[String, Double] = PairFeatures.idfFrom((ds.r ++ ds.s).map(_.tokenSet))

  /** Pairs whose dataset-profile features differ from the per-call ones. */
  private def differing(ds: ERDataset, e: Embedder, pairs: Seq[(Int, Int)]): Seq[String] = {
    val profiles = e.profiles()
    val perCall = new PairFeaturizer(idfOf(ds))
    pairs.flatMap { case (r, s) =>
      val got = PairFeatures.scalars(profiles(r), profiles(ds.r.size + s))
      val want = perCall.scalars(ds.r(r).attrs, ds.s(s).attrs)
      val viaEmbedder = e.featurizer.scalars(ds.r(r).attrs, ds.s(s).attrs)
      if (bits(got) == bits(want) && bits(viaEmbedder) == bits(want)) None
      else Some(s"($r, $s): ${got.mkString(",")} / ${viaEmbedder.mkString(",")} vs ${want.mkString(",")}")
    }
  }

  Seq(
    "Walmart-Amazon" -> (() => ERDataGen.walmartAmazon(scale = 0.25)),
    "Amazon-Google" -> (() => ERDataGen.amazonGoogle(scale = 0.25)),
    "DBLP-ACM" -> (() => ERDataGen.dblpAcm(scale = 0.25)),
    "DBLP-Scholar" -> (() => ERDataGen.dblpScholar(scale = 0.25)),
    "Abt-Buy" -> (() => ERDataGen.abtBuy(scale = 0.25)),
    "multilingual" -> (() => ERDataGen.multilingualDefault(scale = 0.25)),
  ).foreach { case (name, gen) =>
    test(s"the dictionary's IDF equals the token-set IDF bit for bit on $name") {
      val ds = gen()
      val e = embedder(ds)
      val ref = idfOf(ds)
      val tokens = e.dictionary.tokens
      assert(tokens.toSeq == ref.keys.toSeq.sorted)
      val wrong = tokens.indices.filter(i =>
        java.lang.Double.doubleToRawLongBits(e.idf(i)) != java.lang.Double.doubleToRawLongBits(ref(tokens(i))))
      assert(wrong.isEmpty, s"${wrong.size} of ${tokens.length} tokens, first ${wrong.take(3).map(tokens(_))}")
    }

    test(s"dataset profiles give the per-call features on sampled and retrieved CAND pairs of $name") {
      val ds = gen()
      val e = embedder(ds)
      val rng = new Rnd.Gen(31)
      val sampled = Seq.fill(300)((rng.nextInt(ds.r.size), rng.nextInt(ds.s.size)))
      val views = IndexedSeq(new PlainView)
      val cand = Blocker.retrieveCand(e.sBase, views, Blocker.buildIndexes(e.rBase, views), 3, 3 * ds.s.size)
      assert(cand.nonEmpty)
      val bad = differing(ds, e, sampled ++ cand.map(c => (c.rId, c.sId)))
      assert(bad.isEmpty, s"${bad.size} pairs, first: ${bad.take(2).mkString("; ")}")
    }
  }

  test("blank records and tokens the dataset never saw behave as before") {
    val base = ERDataGen.walmartAmazon(scale = 0.08)
    def blank(rec: Rec, attr: String) = rec.copy(attrs = rec.attrs.map(_ => attr))
    val ds = base.copy(
      r = base.r.updated(0, blank(base.r(0), "")).updated(1, blank(base.r(1), "-- / --")),
      s = base.s.updated(0, blank(base.s(0), "")).updated(2, blank(base.s(2), " , ")))
    val e = embedder(ds)
    val profiles = e.profiles()
    assert(profiles(0).toks.isEmpty && profiles(1).toks.isEmpty && profiles(ds.r.size).toks.isEmpty)
    val pairs = for (r <- Seq(0, 1, 5); s <- Seq(0, 2, 7)) yield (r, s)
    val bad = differing(ds, e, pairs)
    assert(bad.isEmpty, bad.mkString("; "))
    // unseen tokens weigh the dataset's greatest IDF, as under the token-set IDF
    val ref = idfOf(ds)
    val reference = new SetPairFeaturizer(ref)
    val perCall = new PairFeaturizer(ref)
    Seq(
      (Seq("qqzx unseen 9x9x9"), ds.s(7).attrs),
      (ds.r(5).attrs, Seq(ds.s(7).attrs.mkString(" ") + " zzyq 77q")),
      (Seq(""), Seq("never seen")),
    ).foreach { case (r, s) =>
      val want = reference.scalars(r, s)
      assert(bits(e.featurizer.scalars(r, s)) == bits(want), s"$r vs $s")
      assert(bits(perCall.scalars(r, s)) == bits(want), s"$r vs $s")
    }
  }
}
