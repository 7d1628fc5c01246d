package repro.forest

import repro.util.Rnd

/** CART decision tree with gini impurity and random feature subsets at each
  * split (the randomisation that makes a forest, per Breiman). Trees are
  * immutable after fitting. One shape: depth at most 12, at least 2 rows
  * per child of a split, and √F of the F features tried at each split.
  */
sealed trait TreeNode
final case class Leaf(prob: Double) extends TreeNode
final case class Split(feature: Int, threshold: Double,
                       left: TreeNode, right: TreeNode) extends TreeNode

object DecisionTree {

  private val MaxDepth = 12
  private[forest] val MinLeaf = 2

  def predict(node: TreeNode, x: Array[Double]): Double = node match {
    case Leaf(p) => p
    case Split(f, t, l, r) => if (x(f) <= t) predict(l, x) else predict(r, x)
  }

  /** Fit on rows `xs` with 0/1 labels `ys`, using only the given `idx` subset
    * (bootstrap sample indices).
    */
  def fit(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Double], idx: Array[Int],
          rng: Rnd.Gen): TreeNode = {
    require(xs.nonEmpty && xs.length == ys.length, "bad training data")
    val nF = xs.head.length
    val subset = math.max(1, math.sqrt(nF.toDouble).round.toInt)

    def gini(pos: Int, n: Int): Double = {
      if (n == 0) 0.0
      else { val p = pos.toDouble / n; 2.0 * p * (1 - p) }
    }

    def build(ids: Array[Int], depth: Int): TreeNode = {
      val n = ids.length
      val pos = ids.count(i => ys(i) > 0.5)
      if (depth >= MaxDepth || n < 2 * MinLeaf || pos == 0 || pos == n)
        return Leaf(pos.toDouble / math.max(1, n))

      val feats = rng.sampleDistinct(nF, math.min(subset, nF))
      var bestGain = 1e-12
      var bestF = -1; var bestT = 0.0
      val parentImp = gini(pos, n)
      feats.foreach { f =>
        // candidate thresholds: midpoints between up to 16 distinct sorted values
        val vals = ids.map(i => xs(i)(f)).distinct.sorted
        if (vals.length > 1) {
          val step = math.max(1, vals.length / 16)
          var vi = 0
          while (vi + step < vals.length) {
            val t = (vals(vi) + vals(vi + step)) / 2.0
            var ln = 0; var lpos = 0
            ids.foreach { i =>
              if (xs(i)(f) <= t) { ln += 1; if (ys(i) > 0.5) lpos += 1 }
            }
            val rn = n - ln
            if (ln >= MinLeaf && rn >= MinLeaf) {
              val childImp = (ln * gini(lpos, ln) + rn * gini(pos - lpos, rn)) / n
              val gain = parentImp - childImp
              if (gain > bestGain) { bestGain = gain; bestF = f; bestT = t }
            }
            vi += step
          }
        }
      }
      if (bestF < 0) Leaf(pos.toDouble / n)
      else {
        val (l, r) = ids.partition(i => xs(i)(bestF) <= bestT)
        Split(bestF, bestT, build(l, depth + 1), build(r, depth + 1))
      }
    }

    build(idx, 0)
  }
}
