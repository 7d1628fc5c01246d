package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.index.{EmbView, NnIndex}
import repro.ml.Vec
import repro.util.Rnd

/** Batched member projections ([[MemberView.project]], and
  * [[NnIndex.project]] over chunks) against the per-record arithmetic,
  * compared by raw bits.
  */
class ProjectionSpec extends AnyFunSuite {

  /** E_k(g ⊙ base) one record and one row of U at a time: the bias plus the
    * kept terms in ascending column order, then tanh (`StrictMath.tanh`,
    * whose bits `FdLibm.tanh` returns).
    */
  private def perRecord(g: Array[Double], m: Member, base: Array[Double]): Array[Double] = {
    val e = Vec.had(g, base)
    Array.tabulate(m.d) { j =>
      val off = j * (m.d + 1)
      var s = m.u(off + m.d)
      m.kept.foreach(i => s += m.u(off + i) * e(i))
      StrictMath.tanh(s)
    }
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** A member of width `d` that keeps exactly `kept` columns. */
  private def member(d: Int, kept: Int, seed: Long): Member = {
    val g = new Rnd.Gen(seed)
    val order = g.permutation(d)
    val mask = Array.tabulate(d)(i => if (order(i) < kept) 1.0 else 0.0)
    val u = Array.tabulate(d * (d + 1)) { at =>
      val (j, i) = (at / (d + 1), at % (d + 1))
      (if (i == j) 1.0 else 0.0) + 0.05 * g.nextGaussian()
    }
    new Member(d, mask, u)
  }

  /** `n` records with exact +0.0 and −0.0 entries, every fifth all zero
    * (what `recordVec` gives an empty record) and every seventh all −0.0.
    */
  private def records(n: Int, d: Int, seed: Long): Array[Array[Double]] = {
    val g = new Rnd.Gen(seed)
    Array.tabulate(n) { r =>
      if (r % 5 == 2) new Array[Double](d)
      else if (r % 7 == 3) Array.fill(d)(-0.0)
      else Array.tabulate(d)(i => if (i % 7 == 3) 0.0 else if (i % 11 == 5) -0.0 else 0.3 * g.nextGaussian())
    }
  }

  private def assertPerRecord(g: Array[Double], m: Member, bases: Array[Array[Double]],
                              got: Array[Array[Double]], what: String): Unit = {
    assert(got.length == bases.length, what)
    bases.indices.foreach { r =>
      assert(bits(got(r)) == bits(perRecord(g, m, bases(r))), s"$what record $r")
      assert(got(r).sameElements(ReferenceKernel.encode(m.d, m.mask, m.u, Vec.had(g, bases(r)))), s"$what record $r")
    }
  }

  private val chunk = NnIndex.Chunk
  private val batchSizes = Seq(0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)

  for ((d, kept) <- Seq((64, 1), (64, 2), (64, 3), (64, 5), (64, 48), (64, 63), (64, 64), (7, 3), (1, 1))) {
    test(s"a batch equals the per-record projection: d = $d, $kept kept columns") {
      val m = member(d, kept, seed = 10L * d + kept)
      val gen = new Rnd.Gen(d + kept)
      // a matcher scale with exact zeros of both signs
      val g = Array.tabulate(d)(i => if (i % 9 == 4) 0.0 else if (i % 13 == 6) -0.0 else 0.5 + gen.nextDouble())
      val view = new MemberView(g, m)
      for (n <- batchSizes) {
        val bases = records(n, d, seed = 1000L * d + n)
        assertPerRecord(g, m, bases, view.project(bases), s"project, n = $n")
        assertPerRecord(g, m, bases, NnIndex.project(view, bases), s"chunked, n = $n")
        bases.indices.foreach(r => assert(bits(view(bases(r))) == bits(perRecord(g, m, bases(r))), s"apply, n = $n"))
      }
    }
  }

  test("the chunked projection of a plain or scale view is the per-record view") {
    val d = 6
    val bases = records(chunk + 1, d, seed = 3)
    val g = Array.tabulate(d)(i => if (i == 2) -0.0 else 1.5 - i)
    for (view <- Seq[EmbView](new PlainView, new ScaleView(g)); n <- batchSizes) {
      val in = bases.take(n)
      val got = NnIndex.project(view, in)
      assert(got.length == in.length)
      in.indices.foreach(r => assert(bits(got(r)) == bits(view(in(r))), s"n = $n record $r"))
    }
  }
}
