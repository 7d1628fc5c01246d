package repro.ml

import repro.util.Rnd

/** The paper's matcher head `F_W`: linear → tanh → linear → (sigmoid outside).
  *
  * Implements forward and manual backprop (checked against finite
  * differences in the test suite) over one flat parameter array, the array
  * the optimiser steps in place. The program scores on the driver; instances
  * stay serializable for the benchmark replay's Spark scoring scan
  * (`SparkKnn.scorePairs`).
  */
final class Mlp(val nIn: Int, val nHidden: Int, seed: Long) extends Serializable {
  def nParams: Int = nHidden * nIn + nHidden + nHidden + 1

  /** W1 (nHidden x nIn, row-major), then b1 (nHidden), w2 (nHidden) and b2. */
  val params: Array[Double] = new Array[Double](nParams)
  private val b1Off = nHidden * nIn
  private val w2Off = b1Off + nHidden
  private val b2Off = nParams - 1

  {
    val g1 = new Rnd.Gen(Rnd.combine(seed, 1))
    for (i <- 0 until b1Off) params(i) = g1.nextGaussian() / math.sqrt(nIn.toDouble)
    val g2 = new Rnd.Gen(Rnd.combine(seed, 2))
    for (j <- 0 until nHidden) params(w2Off + j) = g2.nextGaussian() / math.sqrt(nHidden.toDouble)
  }

  /** Hidden activations h = tanh(W1 x + b1). Exposed for BADGE's gradient
    * embedding (d loss / d output-layer weights = (p - y) * h).
    */
  def hidden(x: Array[Double]): Array[Double] = {
    require(x.length == nIn, s"hidden: expected $nIn inputs, got ${x.length}")
    val h = new Array[Double](nHidden)
    var j = 0
    while (j < nHidden) {
      var s = params(b1Off + j)
      val off = j * nIn
      var i = 0
      while (i < nIn) { s += params(off + i) * x(i); i += 1 }
      h(j) = math.tanh(s)
      j += 1
    }
    h
  }

  /** Raw score F_W(x) (pre-sigmoid logit). */
  def score(x: Array[Double]): Double = outLogit(hidden(x))

  /** The output layer's logit w2 · h + b2 over hidden activations `h`. */
  def outLogit(h: Array[Double]): Double = {
    var s = 0.0; var j = 0
    while (j < nHidden) { s += params(w2Off + j) * h(j); j += 1 }
    s + params(b2Off)
  }

  /** Pr(y = 1 | x) per paper Eq. 5. */
  def prob(x: Array[Double]): Double = Mlp.sigmoid(score(x))

  /** Backprop for binary cross-entropy at a single example.
    *
    * Accumulates parameter gradients into `gFlat` (layout of `params`) and
    * returns the gradient w.r.t. the input x (needed to fine-tune the
    * simulated-TPLM scale g upstream). `y` is the 0/1 label.
    */
  def backprop(x: Array[Double], y: Double, gFlat: Array[Double]): Array[Double] = {
    val h = hidden(x)
    val p = Mlp.sigmoid(outLogit(h))
    val dScore = p - y // d CE / d logit
    val gxOut = new Array[Double](nIn)
    // output layer
    var j = 0
    while (j < nHidden) {
      gFlat(w2Off + j) += dScore * h(j)
      j += 1
    }
    gFlat(b2Off) += dScore
    // hidden layer
    j = 0
    while (j < nHidden) {
      val dH = dScore * params(w2Off + j) * (1.0 - h(j) * h(j))
      gFlat(b1Off + j) += dH
      val off = j * nIn
      var i = 0
      while (i < nIn) {
        gFlat(off + i) += dH * x(i)
        gxOut(i) += dH * params(off + i)
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
