package repro.ml

import repro.util.Rnd

/** The paper's matcher head `F_W`: linear → tanh → linear → (sigmoid outside).
  *
  * Implements forward and manual backprop (checked against finite
  * differences in the test suite) over one flat parameter array, the array
  * the optimiser steps in place. Its dense loops run four hidden units per
  * pass and keep every sum in the order of a one-unit loop, so the results
  * are those of the plain per-unit arithmetic bit for bit; tanh is
  * [[FdLibm.tanh]], bit for bit `StrictMath.tanh`. The program scores on
  * the driver; instances stay serializable for the benchmark replay's Spark
  * scoring scan (`SparkKnn.scorePairs`).
  */
final class Mlp(val nIn: Int, seed: Long) extends Serializable {
  import Mlp.NHidden

  def nParams: Int = NHidden * nIn + NHidden + NHidden + 1

  /** W1 (NHidden x nIn, row-major), then b1 (NHidden), w2 (NHidden) and b2. */
  val params: Array[Double] = new Array[Double](nParams)
  private val b1Off = NHidden * nIn
  private val w2Off = b1Off + NHidden
  private val b2Off = nParams - 1

  {
    val g1 = new Rnd.Gen(Rnd.combine(seed, 1))
    for (i <- 0 until b1Off) params(i) = g1.nextGaussian() / math.sqrt(nIn.toDouble)
    val g2 = new Rnd.Gen(Rnd.combine(seed, 2))
    for (j <- 0 until NHidden) params(w2Off + j) = g2.nextGaussian() / math.sqrt(NHidden.toDouble)
  }

  /** Hidden activations h = tanh(W1 x + b1). Exposed for BADGE's gradient
    * embedding (d loss / d output-layer weights = (p - y) * h).
    *
    * Four hidden units per pass over the input: four independent sums,
    * each still its bias plus its terms in input order.
    */
  def hidden(x: Array[Double]): Array[Double] = {
    require(x.length == nIn, s"hidden: expected $nIn inputs, got ${x.length}")
    val h = new Array[Double](NHidden)
    var j = 0
    while (j < NHidden) {
      val o0 = j * nIn; val o1 = o0 + nIn; val o2 = o1 + nIn; val o3 = o2 + nIn
      var s0 = params(b1Off + j); var s1 = params(b1Off + j + 1)
      var s2 = params(b1Off + j + 2); var s3 = params(b1Off + j + 3)
      var i = 0
      while (i < nIn) {
        val xi = x(i)
        s0 += params(o0 + i) * xi; s1 += params(o1 + i) * xi
        s2 += params(o2 + i) * xi; s3 += params(o3 + i) * xi
        i += 1
      }
      h(j) = FdLibm.tanh(s0); h(j + 1) = FdLibm.tanh(s1)
      h(j + 2) = FdLibm.tanh(s2); h(j + 3) = FdLibm.tanh(s3)
      j += 4
    }
    h
  }

  /** The output layer's logit w2 · h + b2 over hidden activations `h`. */
  def outLogit(h: Array[Double]): Double = {
    var s = 0.0; var j = 0
    while (j < NHidden) { s += params(w2Off + j) * h(j); j += 1 }
    s + params(b2Off)
  }

  /** Pr(y = 1 | x) per paper Eq. 5: the sigmoid of the raw score F_W(x). */
  def prob(x: Array[Double]): Double = Mlp.sigmoid(outLogit(hidden(x)))

  /** Backprop for binary cross-entropy at a single example, given its
    * hidden activations `h = hidden(x)`.
    *
    * Accumulates parameter gradients into `gFlat` (layout of `params`) and
    * returns the gradient w.r.t. the input x (needed to fine-tune the
    * simulated-TPLM scale g upstream). `y` is the 0/1 label. The input
    * gradient sums over the hidden units in order, four units per pass over
    * the input.
    */
  def backprop(x: Array[Double], h: Array[Double], y: Double, gFlat: Array[Double]): Array[Double] = {
    val p = Mlp.sigmoid(outLogit(h))
    val dScore = p - y // d CE / d logit
    val gxOut = new Array[Double](nIn)
    // output layer
    var j = 0
    while (j < NHidden) {
      gFlat(w2Off + j) += dScore * h(j)
      j += 1
    }
    gFlat(b2Off) += dScore
    // hidden layer
    def dH(j: Int): Double = dScore * params(w2Off + j) * (1.0 - h(j) * h(j))
    j = 0
    while (j < NHidden) {
      val d0 = dH(j); val d1 = dH(j + 1); val d2 = dH(j + 2); val d3 = dH(j + 3)
      gFlat(b1Off + j) += d0; gFlat(b1Off + j + 1) += d1
      gFlat(b1Off + j + 2) += d2; gFlat(b1Off + j + 3) += d3
      val o0 = j * nIn; val o1 = o0 + nIn; val o2 = o1 + nIn; val o3 = o2 + nIn
      var i = 0
      while (i < nIn) {
        val xi = x(i)
        gFlat(o0 + i) += d0 * xi; gFlat(o1 + i) += d1 * xi
        gFlat(o2 + i) += d2 * xi; gFlat(o3 + i) += d3 * xi
        gxOut(i) = (((gxOut(i) + d0 * params(o0 + i)) + d1 * params(o1 + i)) +
                    d2 * params(o2 + i)) + d3 * params(o3 + i)
        i += 1
      }
      j += 4
    }
    gxOut
  }
}

object Mlp {
  /** Hidden units, a multiple of four (see [[Mlp.hidden]]). */
  final val NHidden = 32

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
