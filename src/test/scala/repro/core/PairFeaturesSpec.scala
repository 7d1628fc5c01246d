package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ERDataGen, ERDataset}
import repro.text.{HashEmbedding, Tokenizer}

/** The set-based definition of the pair features, the reference the
  * profile-based [[PairFeatures]] must equal exactly.
  */
final class SetPairFeaturizer(idf: Map[String, Double]) {
  private val defaultIdf: Double = if (idf.isEmpty) 1.0 else idf.values.max

  private def w(t: String): Double = idf.getOrElse(t, defaultIdf)

  def scalars(rAttrs: Seq[String], sAttrs: Seq[String]): Array[Double] = {
    val rToks = Tokenizer.recordTokens(rAttrs).toSet
    val sToks = Tokenizer.recordTokens(sAttrs).toSet
    val rGrams = rToks.flatMap(Tokenizer.trigrams)
    val sGrams = sToks.flatMap(Tokenizer.trigrams)
    val inter = rToks.intersect(sToks)
    val union = rToks.union(sToks)
    val idfJac =
      if (union.isEmpty) 0.0
      else inter.iterator.map(w).sum / union.iterator.map(w).sum
    val rDigit = rToks.filter(_.exists(_.isDigit))
    val sDigit = sToks.filter(_.exists(_.isDigit))
    val digitAgree =
      if (rDigit.isEmpty || sDigit.isEmpty) 0.5
      else if (rDigit.intersect(sDigit).nonEmpty) 1.0
      else 0.0
    val digitSim =
      if (rDigit.isEmpty || sDigit.isEmpty) 0.5
      else {
        val sSets = sDigit.toSeq.map(t => Tokenizer.trigrams(t).toSet)
        rDigit.iterator.map { t =>
          val g = Tokenizer.trigrams(t).toSet
          sSets.map(Tokenizer.jaccard(g, _)).max
        }.max
      }
    Array(
      Tokenizer.jaccard(rToks, sToks),
      Tokenizer.overlap(rToks, sToks),
      Tokenizer.jaccard(rGrams, sGrams),
      idfJac,
      digitAgree,
      digitSim,
      (alignScore(rToks, sToks) + alignScore(sToks, rToks)) / 2.0,
    )
  }

  private def alignScore(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val bSets = b.toSeq.map(t => Tokenizer.trigrams(t).toSet)
    var num = 0.0; var den = 0.0
    a.foreach { t =>
      val g = Tokenizer.trigrams(t).toSet
      val best = bSets.map(Tokenizer.jaccard(g, _)).max
      val wt = w(t)
      num += wt * best; den += wt
    }
    num / den
  }
}

class PairFeaturesSpec extends AnyFunSuite {

  /** Index of the first feature that differs under `==`, or -1. */
  private def firstDiff(a: Array[Double], b: Array[Double]): Int =
    if (a.length != b.length) 0 else a.indices.find(i => !(a(i) == b(i))).getOrElse(-1)

  private def show(a: Array[Double]): String = a.map(x => java.lang.Double.toString(x)).mkString("[", ", ", "]")

  private def idfOf(ds: ERDataset): Map[String, Double] = PairFeatures.idfFrom((ds.r ++ ds.s).map(_.tokenSet))

  /** CAND of an untrained single-view retrieval, as `Blocker.retrieveCand` returns it. */
  private def retrievedCand(ds: ERDataset): IndexedSeq[CandPair] = {
    val emb = new HashEmbedding(64, 42L, ds.germanToEnglish)
    val embedder = new Embedder(emb, ds)
    val views = IndexedSeq(new PlainView)
    Blocker.retrieveCand(embedder.sBase, views, Blocker.buildIndexes(embedder.rBase, views),
                         k = 3, candSize = 3 * ds.s.size)
  }

  Seq(
    "Walmart-Amazon" -> (() => ERDataGen.walmartAmazon(scale = 0.25)),
    "DBLP-Scholar" -> (() => ERDataGen.dblpScholar(scale = 0.25)),
    "Abt-Buy" -> (() => ERDataGen.abtBuy(scale = 0.25)),
    "multilingual" -> (() => ERDataGen.multilingualDefault(scale = 0.25)),
  ).foreach { case (name, gen) =>
    test(s"profile features equal the set definition on every retrieved CAND pair of $name") {
      val ds = gen()
      val idf = idfOf(ds)
      val featurizer = new PairFeaturizer(idf)
      val reference = new SetPairFeaturizer(idf)
      val profiles = featurizer.profiles((ds.r ++ ds.s).map(_.attrs))
      val cand = retrievedCand(ds)
      assert(cand.nonEmpty)
      val mismatches = cand.iterator.flatMap { c =>
        val r = ds.r(c.rId).attrs; val s = ds.s(c.sId).attrs
        val want = reference.scalars(r, s)
        Seq("shared profiles" -> PairFeatures.scalars(profiles(c.rId), profiles(ds.r.size + c.sId)),
            "pair profiles" -> featurizer.scalars(r, s)).collect {
          case (path, got) if firstDiff(got, want) >= 0 =>
            s"(${c.rId}, ${c.sId}) $path: ${show(got)} vs ${show(want)}"
        }
      }.toSeq
      val differing = mismatches.size
      assert(differing == 0, s"of ${cand.size} pairs; first: ${mismatches.take(3).mkString("; ")}")
    }
  }

  // -------------------------------------------------- generated records

  /** Tokens with repeats, digit-only and mixed ids, and two pairs of
    * distinct tokens with equal `hashCode` (so `HashSet` collision nodes).
    */
  private val pool = IndexedSeq("an", "c0", "bn", "d0", "2000", "42", "7", "xj2000", "kx2741b", "a",
    "cat", "cart", "card", "sony", "camera", "digital", "black", "the", "of", "edition",
    "pro", "ultra", "x", "zoom", "lens", "kit", "series", "model", "v2", "2nd")

  private val genToken: Gen[String] =
    Gen.frequency(8 -> Gen.oneOf(pool), 1 -> Gen.oneOf("Sony", "CAMERA", "XJ-2000", "Pro!"))

  private val genAttr: Gen[String] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 3 -> Gen.choose(1, 4), 3 -> Gen.choose(5, 14))
    toks <- Gen.listOfN(n, genToken)
    sep <- Gen.oneOf(" ", "  ", ", ", "-", " / ")
  } yield toks.mkString(sep)

  private val genRecord: Gen[IndexedSeq[String]] =
    Gen.choose(0, 3).flatMap(n => Gen.listOfN(n, genAttr)).map(_.toIndexedSeq)

  /** IDF weights for a subset of the pool, with fractional bits that make
    * sums order-sensitive; the rest of the tokens are unseen.
    */
  private val genIdf: Gen[Map[String, Double]] = for {
    seen <- Gen.someOf(pool)
    ws <- Gen.listOfN(seen.size, Gen.choose(0.1, 9.0))
  } yield seen.iterator.zip(ws.iterator).toMap

  private def agrees(featurizer: PairFeaturizer, reference: SetPairFeaturizer,
                     r: IndexedSeq[String], s: IndexedSeq[String], other: IndexedSeq[String]): Boolean = {
    val want = reference.scalars(r, s)
    // a larger batch interns the tokens under other ids
    val batch = featurizer.profiles(IndexedSeq(other, s, r))
    firstDiff(featurizer.scalars(r, s), want) < 0 &&
      firstDiff(PairFeatures.scalars(batch(2), batch(1)), want) < 0
  }

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(3000), prop)
    assert(res.passed, res.status.toString)
  }

  test("the colliding tokens of the generator share a hashCode") {
    assert("an".hashCode == "c0".hashCode && "bn".hashCode == "d0".hashCode)
  }

  test("profile features equal the set definition on generated records (scalacheck)") {
    check(Prop.forAllNoShrink(genIdf, genRecord, genRecord, genRecord) { (idf, r, s, other) =>
      val featurizer = new PairFeaturizer(idf)
      val reference = new SetPairFeaturizer(idf)
      agrees(featurizer, reference, r, s, other) && agrees(featurizer, reference, s, r, other)
    })
  }

  test("PairFeatures.plain equals the set definition with uniform IDF (scalacheck)") {
    val reference = new SetPairFeaturizer(Map.empty)
    check(Prop.forAllNoShrink(genRecord, genRecord, genRecord) { (r, s, other) =>
      agrees(PairFeatures.plain, reference, r, s, other) &&
        firstDiff(PairFeatures.scalars(r, s), reference.scalars(r, s)) < 0
    })
  }

  test("small sets, large sets, empty records and hash collisions equal the set definition") {
    val idf = pool.zipWithIndex.map { case (t, i) => t -> (0.37 + 1.13 * i) }.toMap - "cat"
    val featurizer = new PairFeaturizer(idf)
    val reference = new SetPairFeaturizer(idf)
    val many = "sony digital camera black edition 2000 pro zoom lens kit"
    Seq(
      (Seq(""), Seq("")),
      (Seq(""), Seq(many)),
      (Seq("cat of the"), Seq("the cat cart")),        // Set3 ∪ Set3 → HashSet
      (Seq("a a a cat"), Seq("cat a")),                // repeated tokens, Set2 both
      (Seq("cat", "42"), Seq(many)),                   // Set2 against a HashSet
      (Seq(many), Seq("42 7 2000")),
      (Seq(many + " an"), Seq("c0 sony camera kit v2")), // colliding pair across records
      (Seq(many + " an c0"), Seq("an c0 bn d0 lens")),   // collisions within records
    ).foreach { case (r, s) =>
      Seq((r, s), (s, r)).foreach { case (a, b) =>
        val got = featurizer.scalars(a, b)
        val want = reference.scalars(a, b)
        assert(firstDiff(got, want) < 0, s"$a vs $b: ${show(got)} vs ${show(want)}")
      }
    }
  }
}
