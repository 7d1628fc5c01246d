package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Committee, MemberView}
import repro.ml.Vec
import repro.util.Rnd

/** [[ExactIndex]] returns the list positions of the nearest vectors, as a
  * brute-force sort gives them and bit for bit as the row-by-row
  * [[ReferenceIndex]] does.
  */
class NnIndexSpec extends AnyFunSuite {

  private def randomPoints(n: Int, d: Int, seed: Long): Array[Array[Double]] = {
    val g = new Rnd.Gen(seed)
    Array.fill(n)(Array.fill(d)(g.nextGaussian()))
  }

  private def bruteTopK(vecs: Array[Array[Double]], q: Array[Double], k: Int): Seq[(Int, Double)] =
    vecs.indices.map(i => (i, Vec.distSq(q, vecs(i))))
      .sortBy { case (id, dd) => (dd, id) }.take(k)

  test("ExactIndex matches brute force on random data") {
    val vecs = randomPoints(200, 8, 1)
    val idx = new ExactIndex(vecs)
    val g = new Rnd.Gen(2)
    (1 to 20).foreach { _ =>
      val q = Array.fill(8)(g.nextGaussian())
      val got = idx.search(q, 5).toSeq
      val exp = bruteTopK(vecs, q, 5)
      assert(got.map(_._1) == exp.map(_._1))
      got.zip(exp).foreach { case ((_, a), (_, b)) => assert(math.abs(a - b) < 1e-9) }
    }
  }

  test("ExactIndex distances ascend") {
    val vecs = randomPoints(50, 4, 3)
    val idx = new ExactIndex(vecs)
    val res = idx.search(Array.fill(4)(0.0), 10)
    assert(res.map(_._2).toSeq == res.map(_._2).sorted.toSeq)
  }

  test("ExactIndex k larger than size returns all") {
    val vecs = randomPoints(5, 3, 4)
    val idx = new ExactIndex(vecs)
    assert(idx.search(Array.fill(3)(0.0), 50).length == 5)
  }

  test("ExactIndex ties break by insertion order") {
    val vecs = Array(Array(1.0), Array(1.0), Array(5.0))
    val idx = new ExactIndex(vecs)
    assert(idx.search(Array(0.0), 2).map(_._1).toSeq == Seq(0, 1))
  }

  test("exact query point returns distance 0 first") {
    val vecs = randomPoints(30, 6, 5)
    val idx = new ExactIndex(vecs)
    val res = idx.search(vecs(17), 1)
    assert(res.head._1 == 17 && res.head._2 == 0.0)
  }

  test("TopK accumulator handles k=1") {
    val vecs = randomPoints(10, 3, 12)
    val idx = new ExactIndex(vecs)
    val res = idx.search(Array.fill(3)(0.0), 1)
    assert(res.length == 1)
    assert(res.head._2 == bruteTopK(vecs, Array.fill(3)(0.0), 1).head._2)
  }

  test("ExactIndex search with k <= 0 returns no hits") {
    val idx = new ExactIndex(randomPoints(5, 3, 13))
    assert(idx.search(Array.fill(3)(0.0), 0).isEmpty)
    assert(idx.search(Array.fill(3)(0.0), -2).isEmpty)
  }

  test("ExactIndex rejects vectors of unequal length") {
    val e = intercept[IllegalArgumentException](
      new ExactIndex(Array(Array(1.0, 2.0), Array(3.0))))
    assert(e.getMessage.contains("differ in length"))
  }

  test("ExactIndex rejects a query of the wrong dimension") {
    val idx = new ExactIndex(randomPoints(4, 3, 14))
    Seq(Array(1.0, 2.0), Array(1.0, 2.0, 3.0, 4.0)).foreach { q =>
      val e = intercept[IllegalArgumentException](idx.search(q, 2))
      assert(e.getMessage.contains("index has 3"))
    }
  }

  private def bits(hits: Array[(Int, Double)]): Seq[(Int, Long)] =
    hits.toSeq.map { case (id, d) => (id, java.lang.Double.doubleToRawLongBits(d)) }

  private def sameBits(got: Array[(Int, Double)], exp: Array[(Int, Double)], what: String): Unit =
    assert(bits(got) == bits(exp), what)

  test("ExactIndex equals the row-major reference bit for bit") {
    val g = new Rnd.Gen(15)
    for (n <- Seq(0, 1, 7, 8, 9, 601, 1301); d <- Seq(1, 3, 64)) {
      val vecs = randomPoints(n, d, 100L * n + d)
      val idx = new ExactIndex(vecs)
      val ref = new ReferenceIndex.RowMajor(vecs)
      val queries = Array.fill(5)(Array.fill(d)(g.nextGaussian())) ++ vecs.take(2)
      for (k <- Seq(1, 3, n, n + 5).distinct; q <- queries)
        sameBits(idx.search(q, k), ref.search(q, k), s"n=$n d=$d k=$k")
    }
  }

  test("ExactIndex equals the reference on ties and signed zeros") {
    val g = new Rnd.Gen(16)
    val d = 9
    val base = randomPoints(40, d, 17)
    // every vector three times, and a third of the entries at +0.0 or -0.0
    val vecs = (base ++ base ++ base).map(_.map { x =>
      val u = g.nextDouble()
      if (u < 0.17) 0.0 else if (u < 0.34) -0.0 else x
    })
    val dupes = Array.fill(10)(vecs(3).clone())
    val all = vecs ++ dupes
    val idx = new ExactIndex(all)
    val ref = new ReferenceIndex.RowMajor(all)
    val zeros = Seq(Array.fill(d)(0.0), Array.fill(d)(-0.0), Array.tabulate(d)(i => if (i % 2 == 0) 0.0 else -0.0))
    val queries = zeros ++ Seq(all(3), all(50), Array.fill(d)(g.nextGaussian()))
    for (q <- queries; k <- Seq(1, 3, 12, all.length + 5))
      sameBits(idx.search(q, k), ref.search(q, k), s"k=$k")
    // the eleven copies of vector 3 tie at distance 0 and come back in list order
    assert(idx.search(all(3), 11).map(_._1).toSeq == all.indices.filter(i => all(i).sameElements(all(3))).take(11).toSeq)
  }

  test("probe equals the query-outer reference over 3- and 10-member committees") {
    val d = 64
    val rBase = randomPoints(700, d, 18)
    val sBase = randomPoints(450, d, 19)
    val gen = new Rnd.Gen(20)
    val scale = Array.fill(d)(0.5 + gen.nextDouble())
    for (n <- Seq(3, 10); k <- Seq(1, 3, 20)) {
      val views = Committee.init(n, d, maskP = 0.75, seed = 21L + n).members
        .map(m => new MemberView(scale, m): EmbView)
      val projected = views.map(v => rBase.map(v.apply))
      val got = NnIndex.probe(sBase, views, projected.map(new ExactIndex(_)), k)
      val exp = ReferenceIndex.probe(sBase, views, projected.map(new ReferenceIndex.RowMajor(_)), k)
      assert(got.length == exp.length)
      got.indices.foreach { q =>
        assert(got(q).length == n)
        got(q).indices.foreach(m => sameBits(got(q)(m), exp(q)(m), s"N=$n k=$k query $q member $m"))
      }
    }
  }

  // The search adds four dimensions per pass; these leave a tail of 1, 2
  // or 3 one-dimension passes, or no full pass at all.
  test("ExactIndex equals the reference at dimensions that are not a multiple of four") {
    val g = new Rnd.Gen(22)
    for (d <- Seq(1, 2, 3, 5, 63, 65); n <- Seq(1, 9, 301)) {
      val vecs = randomPoints(n, d, 1000L * d + n)
      val idx = new ExactIndex(vecs)
      val ref = new ReferenceIndex.RowMajor(vecs)
      val queries = Array.fill(4)(Array.fill(d)(g.nextGaussian())) ++ vecs.take(1)
      for (k <- Seq(1, 5, n + 1); q <- queries)
        sameBits(idx.search(q, k), ref.search(q, k), s"d=$d n=$n k=$k")
    }
  }

  test("a search on a small index right after one on a larger index reads none of its sums") {
    val g = new Rnd.Gen(23)
    for (d <- Seq(0, 1, 3, 4, 9)) {
      val big = randomPoints(2000, d, 24)
      val small = randomPoints(7, d, 25)
      val bigIdx = new ExactIndex(big)
      val smallIdx = new ExactIndex(small)
      val smallRef = new ReferenceIndex.RowMajor(small)
      (1 to 3).foreach { _ =>
        // far-away queries leave large sums in the big index's accumulators
        bigIdx.search(Array.fill(d)(100.0 * g.nextGaussian()), 3)
        val q = Array.fill(d)(g.nextGaussian())
        sameBits(smallIdx.search(q, 7), smallRef.search(q, 7), s"d=$d")
      }
    }
  }

  test("NaN distances reach the top k as they do in the reference") {
    val g = new Rnd.Gen(26)
    val d = 6
    val vecs = randomPoints(40, d, 27)
    vecs(3)(2) = Double.NaN
    vecs(17)(5) = Double.NaN
    val idx = new ExactIndex(vecs)
    val ref = new ReferenceIndex.RowMajor(vecs)
    val nanQuery = Array.fill(d)(g.nextGaussian()); nanQuery(0) = Double.NaN
    for (q <- Seq(Array.fill(d)(g.nextGaussian()), vecs(5), nanQuery); k <- Seq(1, 3, 20, 45))
      sameBits(idx.search(q, k), ref.search(q, k), s"k=$k")
    assert(idx.search(nanQuery, 3).forall(_._2.isNaN))
  }

  // ------------------------------------------- the float32 screen is exact

  private def float32Score(q: Array[Double], x: Array[Double]): Float = {
    var acc = 0.0f
    q.indices.foreach { i => val t = q(i).toFloat - x(i).toFloat; acc += t * t }
    acc
  }

  test("float32 scores that swap the order of two double distances still give the exact hits") {
    val u = math.pow(2, -23)
    val y = math.sqrt(0.6 * u)
    for (d <- Seq(2, 7, 64)) {
      val q = new Array[Double](d)
      // a rounds up to float 1 + 2⁻²³, b's first entry down to 1; b's float
      // score 1 + 2⁻²³ is the smaller, but a's double distance is
      val a = Array.tabulate(d)(i => if (i == 0) 1 + 0.51 * u else 0.0)
      val b = Array.tabulate(d)(i => if (i == 0) 1 + 0.49 * u else if (i == 1) y else 0.0)
      assert(float32Score(q, b) < float32Score(q, a) && Vec.distSq(q, a) < Vec.distSq(q, b))
      val far = randomPoints(40, d, 40L + d).map(_.map(_ + 3.0))
      for (vecs <- Seq(Array(b, a) ++ far, far ++ Array(a, b), Array(b) ++ far ++ Array(a))) {
        val idx = new ExactIndex(vecs)
        val ref = new ReferenceIndex.RowMajor(vecs)
        for (k <- Seq(1, 2, 5)) sameBits(idx.search(q, k), ref.search(q, k), s"d=$d k=$k")
        assert(idx.search(q, 1).head._1 == vecs.indexWhere(_ eq a))
      }
    }
  }

  test("vectors one ulp apart, with equal float32 scores, keep their exact order and ties") {
    val g = new Rnd.Gen(41)
    for (d <- Seq(3, 8, 17, 64)) {
      val x = Array.fill(d)(g.nextGaussian())
      // x itself three times, and copies nudged one ulp up or down in one entry
      val variants = Array.fill(3)(x.clone()) ++ Array.tabulate(12) { i =>
        val v = x.clone()
        val j = i % d
        v(j) = if (i % 2 == 0) Math.nextUp(v(j)) else Math.nextDown(v(j))
        v
      }
      val vecs = (variants ++ randomPoints(30, d, 42L + d)).map(v => (g.nextDouble(), v)).sortBy(_._1).map(_._2)
      val idx = new ExactIndex(vecs)
      val ref = new ReferenceIndex.RowMajor(vecs)
      val near = x.map(_ + 1e-3)
      for (q <- Seq(x, near, x.map(-_)); k <- Seq(1, 2, 3, 4, 9, 15, vecs.length + 2))
        sameBits(idx.search(q, k), ref.search(q, k), s"d=$d k=$k")
    }
  }

  test("the screen stays exact for magnitudes far from one, subnormal ones included") {
    val g = new Rnd.Gen(43)
    for (scale <- Seq(1e-310, 1e-300, 1e-40, 1e-20, 1e-5, 1e5, 1e15, 1e18, 1e19, 1e30, 1e200); d <- Seq(3, 64)) {
      val n = 120
      val vecs = randomPoints(n, d, 44L + d).map(_.map(_ * scale))
      vecs(7) = vecs(3).clone() // an exact tie
      val idx = new ExactIndex(vecs)
      val ref = new ReferenceIndex.RowMajor(vecs)
      val queries = Seq(Array.fill(d)(g.nextGaussian() * scale), vecs(3), vecs(50).map(_ * (1 + 1e-12)))
      for (q <- queries; k <- Seq(1, 3, 20, n + 4))
        sameBits(idx.search(q, k), ref.search(q, k), s"scale=$scale d=$d k=$k")
    }
  }

  test("grid points with many exact ties, at dimensions not a multiple of four and k > n") {
    val g = new Rnd.Gen(45)
    for (d <- Seq(1, 2, 3, 5, 6, 7, 9); n <- Seq(1, 2, 10, 257)) {
      val vecs = Array.fill(n)(Array.fill(d)((g.nextInt(5) - 2).toDouble))
      val idx = new ExactIndex(vecs)
      val ref = new ReferenceIndex.RowMajor(vecs)
      val queries = Seq(Array.fill(d)(0.0), Array.fill(d)((g.nextInt(5) - 2).toDouble), Array.fill(d)(0.5))
      for (q <- queries; k <- Seq(1, 4, n, n + 3).distinct)
        sameBits(idx.search(q, k), ref.search(q, k), s"d=$d n=$n k=$k")
    }
  }

  test("the screen equals the reference over random scales, sizes and near-duplicates (scalacheck)") {
    import org.scalacheck.{Gen, Prop, Test}
    val cases = for {
      n <- Gen.choose(1, 300)
      d <- Gen.choose(1, 70)
      k <- Gen.choose(1, n + 3)
      exp <- Gen.frequency(6 -> Gen.choose(-40, 40), 1 -> Gen.choose(-1070, -900), 1 -> Gen.choose(60, 1000))
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (n, d, k, exp, seed)
    val prop = Prop.forAllNoShrink(cases) { case (n, d, k, exp, seed) =>
      val g = new Rnd.Gen(seed)
      val scale = math.pow(2, exp)
      val vecs = Array.fill(n)(Array.fill(d)(g.nextGaussian() * scale))
      // near-duplicates: copies of earlier vectors, nudged one ulp in one entry
      (1 until n by 3).foreach { i =>
        val v = vecs(g.nextInt(i)).clone()
        val j = g.nextInt(d)
        v(j) = Math.nextUp(v(j))
        vecs(i) = v
      }
      val idx = new ExactIndex(vecs)
      val ref = new ReferenceIndex.RowMajor(vecs)
      val queries = Seq(Array.fill(d)(g.nextGaussian() * scale), vecs(g.nextInt(n)))
      queries.forall(q => bits(idx.search(q, k)) == bits(ref.search(q, k)))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }
}
