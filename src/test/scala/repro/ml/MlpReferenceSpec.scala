package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rnd

/** The blocked head must equal [[ReferenceMlp]] bit for bit at its one
  * hidden width, [[Mlp.NHidden]].
  */
class MlpReferenceSpec extends AnyFunSuite {

  test(s"hidden, prob and backprop equal the per-unit reference at nHidden = ${Mlp.NHidden}") {
    assert(Mlp.NHidden % 4 == 0, "the blocked loops take four hidden units per pass")
    val g = new Rnd.Gen(40 + Mlp.NHidden)
    val nIn = 23
    val mlp = new Mlp(nIn, seed = Mlp.NHidden.toLong)
    // move every parameter off its initialisation, biases included
    mlp.params.indices.foreach(i => mlp.params(i) += 0.3 * g.nextGaussian())
    (1 to 20).foreach { rep =>
      val x = Array.tabulate(nIn)(i => if (i == 4) 0.0 else if (i == 7) -0.0 else 2.0 * g.nextGaussian())
      assert(mlp.hidden(x).sameElements(ReferenceMlp.hidden(mlp, x)), s"hidden, example $rep")
      assert(mlp.prob(x) == ReferenceMlp.prob(mlp, x), s"prob, example $rep")
      val y = if (rep % 2 == 0) 0.9 else 0.1
      // accumulate onto a non-zero gradient, as a mini-batch does
      val start = Array.fill(mlp.nParams)(g.nextGaussian())
      val got = start.clone(); val exp = start.clone()
      val gx = mlp.backprop(x, mlp.hidden(x), y, got)
      val gxRef = ReferenceMlp.backprop(mlp, x, y, exp)
      assert(got.sameElements(exp), s"parameter gradient, example $rep")
      assert(gx.sameElements(gxRef), s"input gradient, example $rep")
    }
  }
}
