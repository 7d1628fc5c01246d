package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class VecSpec extends AnyFunSuite {
  private val eps = 1e-12

  test("zeros") { assert(Vec.zeros(4).toSeq == Seq(0.0, 0.0, 0.0, 0.0)) }

  test("axpyI adds scaled vector in place") {
    val a = Array(1.0, 2.0)
    Vec.axpyI(a, 2.0, Array(3.0, 4.0))
    assert(a.toSeq == Seq(7.0, 10.0))
  }

  test("scaleI") {
    val a = Array(1.0, -2.0)
    Vec.scaleI(a, 3.0)
    assert(a.toSeq == Seq(3.0, -6.0))
  }

  test("had is element-wise product") {
    assert(Vec.had(Array(2.0, 3.0), Array(4.0, -1.0)).toSeq == Seq(8.0, -3.0))
  }

  test("l2sq and l2") {
    val a = Array(3.0, 4.0)
    assert(math.abs(Vec.l2(a) * Vec.l2(a) - 25.0) < eps)
    assert(math.abs(Vec.l2(a) - 5.0) < eps)
    assert(Vec.l2(Array.empty[Double]) == 0.0)
  }

  test("distSq is symmetric and zero at identity") {
    val a = Array(1.0, 2.0, 3.0); val b = Array(0.0, -1.0, 5.0)
    assert(math.abs(Vec.distSq(a, b) - Vec.distSq(b, a)) < eps)
    assert(Vec.distSq(a, a) == 0.0)
    assert(math.abs(Vec.distSq(a, b) - (1.0 + 9.0 + 4.0)) < eps)
  }

  test("triangle inequality for l2 (scalacheck)") {
    val gen = org.scalacheck.Gen.listOfN(6, org.scalacheck.Gen.choose(-10.0, 10.0))
    val prop = org.scalacheck.Prop.forAll(gen) { xs =>
      val a = xs.take(3).toArray
      val b = xs.drop(3).toArray
      math.sqrt(Vec.distSq(a, b)) <= Vec.l2(a) + Vec.l2(b) + 1e-9
    }
    assert(org.scalacheck.Test.check(org.scalacheck.Test.Parameters.default, prop).passed)
  }
}
