package repro.ml

import repro.util.Rnd

/** k-means with k-means++ seeding (Arthur & Vassilvitskii), driver-side.
  *
  * Used in two places, mirroring the paper's dependencies:
  *  - BADGE example selection, which seeds k-means++ on gradient embeddings
  *    and takes the chosen seeds as the query batch;
  *  - the IVF index's coarse quantiser (our FAISS substitute).
  */
object KMeans {

  /** k-means++ seeding: returns indices of `k` chosen points. This is exactly
    * the BADGE selection rule — the seeds themselves are the batch.
    */
  def ppSeeds(points: IndexedSeq[Array[Double]], k: Int, seed: Long): Array[Int] = {
    require(points.nonEmpty, "kmeans++ on empty point set")
    val g = new Rnd.Gen(seed)
    val n = points.length
    val kk = math.min(k, n)
    val chosen = new Array[Int](kk)
    chosen(0) = g.nextInt(n)
    val d2 = Array.tabulate(n)(i => Vec.distSq(points(i), points(chosen(0))))
    var c = 1
    while (c < kk) {
      val total = d2.sum
      val idx =
        if (total <= 0.0) g.nextInt(n) // all remaining points identical
        else {
          var r = g.nextDouble() * total
          var i = 0
          while (i < n - 1 && r >= d2(i)) { r -= d2(i); i += 1 }
          i
        }
      chosen(c) = idx
      var i = 0
      while (i < n) {
        val d = Vec.distSq(points(i), points(idx))
        if (d < d2(i)) d2(i) = d
        i += 1
      }
      c += 1
    }
    chosen
  }

  /** At most this many Lloyd iterations in [[fit]]. */
  private val Iters = 15

  /** Lloyd iterations from k-means++ seeds; returns (centroids, assignment). */
  def fit(points: IndexedSeq[Array[Double]], k: Int,
          seed: Long): (Array[Array[Double]], Array[Int]) = {
    val kk = math.min(k, points.length)
    var cents = ppSeeds(points, kk, seed).map(i => points(i).clone())
    val assign = new Array[Int](points.length)
    var it = 0
    var changed = true
    while (it < Iters && changed) {
      changed = false
      var i = 0
      while (i < points.length) {
        var best = 0; var bestD = Double.MaxValue
        var c = 0
        while (c < kk) {
          val d = Vec.distSq(points(i), cents(c))
          if (d < bestD) { bestD = d; best = c }
          c += 1
        }
        if (assign(i) != best || it == 0) { assign(i) = best; changed = true }
        i += 1
      }
      val sums = Array.fill(kk)(Vec.zeros(points.head.length))
      val counts = new Array[Int](kk)
      i = 0
      while (i < points.length) {
        Vec.axpyI(sums(assign(i)), 1.0, points(i))
        counts(assign(i)) += 1
        i += 1
      }
      cents = Array.tabulate(kk) { c =>
        if (counts(c) == 0) cents(c) // keep empty cluster's centroid
        else { Vec.scaleI(sums(c), 1.0 / counts(c)); sums(c) }
      }
      it += 1
    }
    (cents, assign)
  }
}
