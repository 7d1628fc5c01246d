package repro.ml

/** Dense-vector primitives over `Array[Double]`.
  *
  * All model code (matcher head, committee members, k-means, indexes) works
  * on raw arrays for speed; these helpers keep that code readable. Methods
  * ending in `I` mutate their first argument in place.
  */
object Vec {

  def zeros(n: Int): Array[Double] = new Array[Double](n)

  /** a += alpha * b */
  def axpyI(a: Array[Double], alpha: Double, b: Array[Double]): Unit = {
    require(a.length == b.length, s"axpy: ${a.length} vs ${b.length}")
    var i = 0
    while (i < a.length) { a(i) += alpha * b(i); i += 1 }
  }

  def scaleI(a: Array[Double], alpha: Double): Unit = {
    var i = 0
    while (i < a.length) { a(i) *= alpha; i += 1 }
  }

  /** Element-wise product. */
  def had(a: Array[Double], b: Array[Double]): Array[Double] = {
    require(a.length == b.length, s"had: ${a.length} vs ${b.length}")
    val out = new Array[Double](a.length); var i = 0
    while (i < a.length) { out(i) = a(i) * b(i); i += 1 }
    out
  }

  def l2(a: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * a(i); i += 1 }
    math.sqrt(s)
  }

  /** Squared euclidean distance — the paper's blocker similarity is its negation. */
  def distSq(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"distSq: ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }
}
