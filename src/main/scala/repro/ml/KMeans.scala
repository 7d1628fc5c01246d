package repro.ml

import repro.util.Rnd

/** k-means++ seeding (Arthur & Vassilvitskii), driver-side: BADGE example
  * selection seeds k-means++ on gradient embeddings and takes the chosen
  * seeds as the query batch.
  */
object KMeans {

  /** k-means++ seeding: returns indices of `k` chosen points, all distinct.
    * This is exactly the BADGE selection rule — the seeds themselves are the
    * batch. Each draw is among the points at positive distance from every
    * seed so far; once none is left (repeated points), the lowest unchosen
    * index is taken. A k ≤ 0 chooses no seeds.
    */
  def ppSeeds(points: IndexedSeq[Array[Double]], k: Int, seed: Long): Array[Int] = {
    require(points.nonEmpty, "kmeans++ on empty point set")
    if (k <= 0) return Array.emptyIntArray
    val g = new Rnd.Gen(seed)
    val n = points.length
    val kk = math.min(k, n)
    val chosen = new Array[Int](kk)
    val isChosen = new Array[Boolean](n)
    chosen(0) = g.nextInt(n)
    isChosen(chosen(0)) = true
    val d2 = Array.tabulate(n)(i => Vec.distSq(points(i), points(chosen(0))))
    var c = 1
    while (c < kk) {
      val total = d2.sum
      val idx =
        if (total <= 0.0) isChosen.indexOf(false) // every unchosen point repeats a seed
        else {
          // roulette over d2; rounding can carry r past the last point at
          // positive distance, which is then taken
          var r = g.nextDouble() * total
          var i = 0
          var last = -1
          while (i < n && (d2(i) <= 0.0 || r >= d2(i))) {
            if (d2(i) > 0.0) { r -= d2(i); last = i }
            i += 1
          }
          if (i < n) i else last
        }
      chosen(c) = idx
      isChosen(idx) = true
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
}
