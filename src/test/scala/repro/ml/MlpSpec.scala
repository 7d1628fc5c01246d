package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rnd

class MlpSpec extends AnyFunSuite {

  private def numericGrad(mlp: Mlp, x: Array[Double], y: Double): Array[Double] = {
    val params = mlp.params
    val g = new Array[Double](params.length)
    val h = 1e-6
    params.indices.foreach { i =>
      val w = params(i)
      params(i) = w + h
      val lp = Mlp.bceFromLogit(mlp.outLogit(mlp.hidden(x)), y)
      params(i) = w - h
      val lm = Mlp.bceFromLogit(mlp.outLogit(mlp.hidden(x)), y)
      params(i) = w
      g(i) = (lp - lm) / (2 * h)
    }
    g
  }

  test("sigmoid at 0 is 0.5 and is monotone") {
    assert(Mlp.sigmoid(0.0) == 0.5)
    assert(Mlp.sigmoid(2.0) > Mlp.sigmoid(1.0))
    assert(Mlp.sigmoid(-30.0) < 1e-12)
    assert(Mlp.sigmoid(30.0) > 1.0 - 1e-12)
  }

  test("bceFromLogit matches direct formula and is stable at extremes") {
    val z = 1.3
    assert(math.abs(Mlp.bceFromLogit(z, 1.0) - (-math.log(Mlp.sigmoid(z)))) < 1e-12)
    assert(math.abs(Mlp.bceFromLogit(z, 0.0) - (-math.log(1 - Mlp.sigmoid(z)))) < 1e-12)
    assert(!Mlp.bceFromLogit(500.0, 0.0).isInfinite)
    assert(!Mlp.bceFromLogit(-500.0, 1.0).isInfinite)
  }

  test("prob is sigmoid of score") {
    val mlp = new Mlp(3, seed = 3)
    val x = Array(0.1, -0.2, 0.5)
    assert(math.abs(mlp.prob(x) - Mlp.sigmoid(mlp.outLogit(mlp.hidden(x)))) < 1e-12)
  }

  test("backprop parameter gradient matches finite differences (y=1)") {
    val mlp = new Mlp(4, seed = 4)
    val g = new Rnd.Gen(11)
    val x = Array.fill(4)(g.nextGaussian())
    val analytic = new Array[Double](mlp.nParams)
    mlp.backprop(x, mlp.hidden(x), 1.0, analytic)
    val numeric = numericGrad(mlp, x, 1.0)
    analytic.indices.foreach { i =>
      assert(math.abs(analytic(i) - numeric(i)) < 1e-4,
        s"param $i: analytic=${analytic(i)} numeric=${numeric(i)}")
    }
  }

  test("backprop parameter gradient matches finite differences (y=0)") {
    val mlp = new Mlp(6, seed = 5)
    val g = new Rnd.Gen(12)
    val x = Array.fill(6)(g.nextGaussian())
    val analytic = new Array[Double](mlp.nParams)
    mlp.backprop(x, mlp.hidden(x), 0.0, analytic)
    val numeric = numericGrad(mlp, x, 0.0)
    analytic.indices.foreach { i =>
      assert(math.abs(analytic(i) - numeric(i)) < 1e-4)
    }
  }

  test("backprop input gradient matches finite differences") {
    val mlp = new Mlp(5, seed = 6)
    val g = new Rnd.Gen(13)
    val x = Array.fill(5)(g.nextGaussian())
    val dummy = new Array[Double](mlp.nParams)
    val gx = mlp.backprop(x, mlp.hidden(x), 1.0, dummy)
    val h = 1e-6
    x.indices.foreach { i =>
      val xp = x.clone(); xp(i) += h
      val xm = x.clone(); xm(i) -= h
      val num = (Mlp.bceFromLogit(mlp.outLogit(mlp.hidden(xp)), 1.0) - Mlp.bceFromLogit(mlp.outLogit(mlp.hidden(xm)), 1.0)) / (2 * h)
      assert(math.abs(gx(i) - num) < 1e-4, s"input $i: ${gx(i)} vs $num")
    }
  }

  test("hidden returns tanh activations in [-1,1]") {
    val mlp = new Mlp(4, seed = 7)
    val h = mlp.hidden(Array(10.0, -10.0, 3.0, 0.0))
    assert(h.forall(v => v >= -1.0 && v <= 1.0))
  }

  test("gradient-descent training separates a linearly separable set") {
    val g = new Rnd.Gen(21)
    val data = (1 to 200).map { _ =>
      val x = Array(g.nextGaussian(), g.nextGaussian())
      (x, if (x(0) + x(1) > 0) 1.0 else 0.0)
    }
    val mlp = new Mlp(2, seed = 8)
    val adam = new Adam(mlp.nParams, 0.05)
    (1 to 200).foreach { _ =>
      val grad = new Array[Double](mlp.nParams)
      data.foreach { case (x, y) => mlp.backprop(x, mlp.hidden(x), y, grad) }
      Vec.scaleI(grad, 1.0 / data.size)
      adam.step(mlp.params, grad)
    }
    val acc = data.count { case (x, y) => (mlp.prob(x) > 0.5) == (y > 0.5) }.toDouble / data.size
    assert(acc > 0.95, s"accuracy=$acc")
  }

  test("seeds give different initialisations") {
    val a = new Mlp(3, seed = 1)
    val b = new Mlp(3, seed = 2)
    assert(a.params.toSeq != b.params.toSeq)
  }
}
