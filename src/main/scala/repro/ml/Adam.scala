package repro.ml

/** AdamW (Adam with decoupled weight decay) over a flat parameter array, at
  * a constant learning rate.
  *
  * This mirrors the paper's optimiser choice (Loshchilov & Hutter) for both
  * the matcher head and the committee embedding layers.
  */
final class Adam(nParams: Int, lr: Double, weightDecay: Double = 0.01) extends Serializable {
  import Adam._

  private val m = new Array[Double](nParams)
  private val v = new Array[Double](nParams)
  private var t = 0

  /** Apply one update: params -= lr * (mhat / (sqrt(vhat) + eps) + wd * params). */
  def step(params: Array[Double], grad: Array[Double]): Unit = {
    require(params.length == nParams && grad.length == nParams,
      s"Adam.step: expected $nParams params, got ${params.length}/${grad.length}")
    t += 1
    val bc1 = 1.0 - math.pow(Beta1, t.toDouble)
    val bc2 = 1.0 - math.pow(Beta2, t.toDouble)
    var i = 0
    while (i < nParams) {
      m(i) = Beta1 * m(i) + (1 - Beta1) * grad(i)
      v(i) = Beta2 * v(i) + (1 - Beta2) * grad(i) * grad(i)
      val mh = m(i) / bc1
      val vh = v(i) / bc2
      params(i) -= lr * (mh / (math.sqrt(vh) + Eps) + weightDecay * params(i))
      i += 1
    }
  }
}

object Adam {
  private val Beta1 = 0.9
  private val Beta2 = 0.999
  private val Eps = 1e-8
}
