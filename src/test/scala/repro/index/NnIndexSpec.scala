package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Committee, MemberView}
import repro.ml.Vec
import repro.util.Rnd

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
    val idx = new ExactIndex(Array.tabulate(200)(identity), vecs)
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
    val idx = new ExactIndex(Array.tabulate(50)(identity), vecs)
    val res = idx.search(Array.fill(4)(0.0), 10)
    assert(res.map(_._2).toSeq == res.map(_._2).sorted.toSeq)
  }

  test("ExactIndex k larger than size returns all") {
    val vecs = randomPoints(5, 3, 4)
    val idx = new ExactIndex(Array.tabulate(5)(identity), vecs)
    assert(idx.search(Array.fill(3)(0.0), 50).length == 5)
  }

  test("ExactIndex preserves custom ids") {
    val vecs = Array(Array(0.0), Array(10.0))
    val idx = new ExactIndex(Array(7, 42), vecs)
    assert(idx.search(Array(9.0), 1).head._1 == 42)
  }

  test("ExactIndex ties break by insertion order") {
    val vecs = Array(Array(1.0), Array(1.0), Array(5.0))
    val idx = new ExactIndex(Array(0, 1, 2), vecs)
    assert(idx.search(Array(0.0), 2).map(_._1).toSeq == Seq(0, 1))
  }

  test("ExactIndex rejects mismatched ids") {
    intercept[IllegalArgumentException](new ExactIndex(Array(1), Array.empty))
  }

  test("exact query point returns distance 0 first") {
    val vecs = randomPoints(30, 6, 5)
    val idx = new ExactIndex(Array.tabulate(30)(identity), vecs)
    val res = idx.search(vecs(17), 1)
    assert(res.head._1 == 17 && res.head._2 == 0.0)
  }

  test("TopK accumulator handles k=1") {
    val vecs = randomPoints(10, 3, 12)
    val idx = new ExactIndex(Array.tabulate(10)(identity), vecs)
    val res = idx.search(Array.fill(3)(0.0), 1)
    assert(res.length == 1)
    assert(res.head._2 == bruteTopK(vecs, Array.fill(3)(0.0), 1).head._2)
  }

  test("ExactIndex search with k <= 0 returns no hits") {
    val idx = new ExactIndex(Array.tabulate(5)(identity), randomPoints(5, 3, 13))
    assert(idx.search(Array.fill(3)(0.0), 0).isEmpty)
    assert(idx.search(Array.fill(3)(0.0), -2).isEmpty)
  }

  test("ExactIndex rejects vectors of unequal length") {
    val e = intercept[IllegalArgumentException](
      new ExactIndex(Array(0, 1), Array(Array(1.0, 2.0), Array(3.0))))
    assert(e.getMessage.contains("differ in length"))
  }

  test("ExactIndex rejects a query of the wrong dimension") {
    val idx = new ExactIndex(Array.tabulate(4)(identity), randomPoints(4, 3, 14))
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
      val ids = Array.tabulate(n)(i => 3 * i + 1)
      val vecs = randomPoints(n, d, 100L * n + d)
      val idx = new ExactIndex(ids, vecs)
      val ref = new ReferenceIndex.RowMajor(ids, vecs)
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
    val ids = Array.tabulate(all.length)(identity)
    val idx = new ExactIndex(ids, all)
    val ref = new ReferenceIndex.RowMajor(ids, all)
    val zeros = Seq(Array.fill(d)(0.0), Array.fill(d)(-0.0), Array.tabulate(d)(i => if (i % 2 == 0) 0.0 else -0.0))
    val queries = zeros ++ Seq(all(3), all(50), Array.fill(d)(g.nextGaussian()))
    for (q <- queries; k <- Seq(1, 3, 12, all.length + 5))
      sameBits(idx.search(q, k), ref.search(q, k), s"k=$k")
    // the eleven copies of vector 3 tie at distance 0 and come back in id order
    assert(idx.search(all(3), 11).map(_._1).toSeq == ids.filter(i => all(i).sameElements(all(3))).take(11).toSeq)
  }

  test("probe equals the query-outer reference over 3- and 10-member committees") {
    val d = 64
    val rBase = randomPoints(700, d, 18)
    val sBase = randomPoints(450, d, 19)
    val gen = new Rnd.Gen(20)
    val scale = Array.fill(d)(0.5 + gen.nextDouble())
    val ids = Array.tabulate(rBase.length)(identity)
    for (n <- Seq(3, 10); k <- Seq(1, 3, 20)) {
      val views = Committee.init(n, d, maskP = 0.75, seed = 21L + n).members
        .map(m => new MemberView(scale, m): EmbView)
      val projected = views.map(v => rBase.map(v.apply))
      val got = NnIndex.probe(sBase, views, projected.map(new ExactIndex(ids, _)), k)
      val exp = ReferenceIndex.probe(sBase, views, projected.map(new ReferenceIndex.RowMajor(ids, _)), k)
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
      val ids = Array.tabulate(n)(identity)
      val vecs = randomPoints(n, d, 1000L * d + n)
      val idx = new ExactIndex(ids, vecs)
      val ref = new ReferenceIndex.RowMajor(ids, vecs)
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
      val bigIdx = new ExactIndex(Array.tabulate(big.length)(identity), big)
      val smallIdx = new ExactIndex(Array.tabulate(small.length)(identity), small)
      val smallRef = new ReferenceIndex.RowMajor(Array.tabulate(small.length)(identity), small)
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
    val ids = Array.tabulate(vecs.length)(identity)
    val idx = new ExactIndex(ids, vecs)
    val ref = new ReferenceIndex.RowMajor(ids, vecs)
    val nanQuery = Array.fill(d)(g.nextGaussian()); nanQuery(0) = Double.NaN
    for (q <- Seq(Array.fill(d)(g.nextGaussian()), vecs(5), nanQuery); k <- Seq(1, 3, 20, 45))
      sameBits(idx.search(q, k), ref.search(q, k), s"k=$k")
    assert(idx.search(nanQuery, 3).forall(_._2.isNaN))
  }
}
