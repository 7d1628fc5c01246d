package repro.ml

import repro.util.Rnd

/** The paper's matcher head `F_W`: linear → tanh → linear → (sigmoid outside).
  *
  * Implements forward, manual backprop (checked against finite differences in
  * the test suite), and copies to/from a flat parameter vector, the layout
  * the optimiser steps over. The program scores on the driver; instances
  * stay serializable for the benchmark replay's Spark scoring scan
  * (`SparkKnn.scorePairs`).
  */
final class Mlp(val nIn: Int, val nHidden: Int, seed: Long) extends Serializable {
  // Parameters: W1 (nHidden x nIn), b1 (nHidden), w2 (nHidden), b2 (1)
  val w1: Array[Double] = {
    val g = new Rnd.Gen(Rnd.combine(seed, 1))
    Array.fill(nHidden * nIn)(g.nextGaussian() / math.sqrt(nIn.toDouble))
  }
  val b1: Array[Double] = new Array[Double](nHidden)
  val w2: Array[Double] = {
    val g = new Rnd.Gen(Rnd.combine(seed, 2))
    Array.fill(nHidden)(g.nextGaussian() / math.sqrt(nHidden.toDouble))
  }
  var b2: Double = 0.0

  def nParams: Int = nHidden * nIn + nHidden + nHidden + 1

  def toFlat: Array[Double] = {
    val out = new Array[Double](nParams)
    System.arraycopy(w1, 0, out, 0, w1.length)
    System.arraycopy(b1, 0, out, w1.length, b1.length)
    System.arraycopy(w2, 0, out, w1.length + b1.length, w2.length)
    out(nParams - 1) = b2
    out
  }

  def fromFlat(p: Array[Double]): Unit = {
    require(p.length == nParams, s"fromFlat: expected $nParams, got ${p.length}")
    System.arraycopy(p, 0, w1, 0, w1.length)
    System.arraycopy(p, w1.length, b1, 0, b1.length)
    System.arraycopy(p, w1.length + b1.length, w2, 0, w2.length)
    b2 = p(nParams - 1)
  }

  /** Hidden activations h = tanh(W1 x + b1). Exposed for BADGE's gradient
    * embedding (d loss / d output-layer weights = (p - y) * h).
    */
  def hidden(x: Array[Double]): Array[Double] = {
    require(x.length == nIn, s"hidden: expected $nIn inputs, got ${x.length}")
    val h = new Array[Double](nHidden)
    var j = 0
    while (j < nHidden) {
      var s = b1(j)
      val off = j * nIn
      var i = 0
      while (i < nIn) { s += w1(off + i) * x(i); i += 1 }
      h(j) = math.tanh(s)
      j += 1
    }
    h
  }

  /** Raw score F_W(x) (pre-sigmoid logit). */
  def score(x: Array[Double]): Double = {
    val h = hidden(x)
    Vec.dot(w2, h) + b2
  }

  /** Pr(y = 1 | x) per paper Eq. 5. */
  def prob(x: Array[Double]): Double = Mlp.sigmoid(score(x))

  /** Backprop for binary cross-entropy at a single example.
    *
    * Accumulates parameter gradients into `gFlat` (layout of `toFlat`) and
    * returns the gradient w.r.t. the input x (needed to fine-tune the
    * simulated-TPLM scale g upstream). `y` is the 0/1 label.
    */
  def backprop(x: Array[Double], y: Double, gFlat: Array[Double]): Array[Double] = {
    val h = hidden(x)
    val p = Mlp.sigmoid(Vec.dot(w2, h) + b2)
    val dScore = p - y // d CE / d logit
    val gxOut = new Array[Double](nIn)
    val w2Off = w1.length + b1.length
    // output layer
    var j = 0
    while (j < nHidden) {
      gFlat(w2Off + j) += dScore * h(j)
      j += 1
    }
    gFlat(nParams - 1) += dScore
    // hidden layer
    j = 0
    while (j < nHidden) {
      val dH = dScore * w2(j) * (1.0 - h(j) * h(j))
      gFlat(w1.length + j) += dH
      val off = j * nIn
      var i = 0
      while (i < nIn) {
        gFlat(off + i) += dH * x(i)
        gxOut(i) += dH * w1(off + i)
        i += 1
      }
      j += 1
    }
    gxOut
  }
}

object Mlp {
  def sigmoid(z: Double): Double =
    if (z >= 0) 1.0 / (1.0 + math.exp(-z))
    else { val e = math.exp(z); e / (1.0 + e) }

  /** Numerically stable binary cross-entropy from the logit. */
  def bceFromLogit(logit: Double, y: Double): Double = {
    // log(1 + exp(-z)) for y=1; log(1 + exp(z)) for y=0
    val z = if (y > 0.5) logit else -logit
    if (z > 0) math.log1p(math.exp(-z)) else -z + math.log1p(math.exp(z))
  }
}
