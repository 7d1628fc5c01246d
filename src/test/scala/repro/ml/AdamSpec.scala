package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class AdamSpec extends AnyFunSuite {

  test("minimises a quadratic") {
    val adam = new Adam(2, lr = 0.1, weightDecay = 0.0)
    val p = Array(5.0, -3.0)
    (1 to 500).foreach { _ =>
      val g = Array(2.0 * (p(0) - 1.0), 2.0 * (p(1) - 2.0)) // min at (1, 2)
      adam.step(p, g)
    }
    assert(math.abs(p(0) - 1.0) < 0.01, p.toSeq.toString)
    assert(math.abs(p(1) - 2.0) < 0.01, p.toSeq.toString)
  }

  test("weight decay pulls parameters toward zero with zero gradient") {
    val adam = new Adam(1, lr = 0.1, weightDecay = 0.1)
    val p = Array(10.0)
    (1 to 200).foreach(_ => adam.step(p, Array(0.0)))
    assert(math.abs(p(0)) < 2.0, p(0).toString)
  }

  test("zero weight decay leaves stationary point alone") {
    val adam = new Adam(1, lr = 0.1, weightDecay = 0.0)
    val p = Array(10.0)
    (1 to 50).foreach(_ => adam.step(p, Array(0.0)))
    assert(p(0) == 10.0)
  }

  test("rejects mismatched parameter vector") {
    val adam = new Adam(2, lr = 0.1)
    intercept[IllegalArgumentException](adam.step(Array(1.0), Array(1.0)))
  }

  test("first step moves against the gradient") {
    val adam = new Adam(1, lr = 0.01, weightDecay = 0.0)
    val p = Array(0.0)
    adam.step(p, Array(1.0))
    assert(p(0) < 0.0)
  }
}
