package repro.forest

import repro.util.Rnd

/** Bagged forest of CART trees — the learner of the paper's strongest
  * non-TPLM baseline ("random forests with learner-aware QBC perform
  * remarkably well", Meduri et al.). Bootstrap per tree doubles as the
  * committee construction of Mozafari et al.'s QBC.
  */
final class RandomForest(val trees: IndexedSeq[TreeNode]) extends Serializable {

  /** Fraction of trees voting duplicate — both the prediction probability
    * and the committee's #match/m for variance-based selection.
    */
  def voteFraction(x: Array[Double]): Double = {
    var votes = 0
    trees.foreach(t => if (DecisionTree.predict(t, x) > 0.5) votes += 1)
    votes.toDouble / trees.length
  }

  /** QBC variance (Mozafari et al.): p(1 − p) with p = #match/m. */
  def variance(x: Array[Double]): Double = {
    val p = voteFraction(x)
    p * (1.0 - p)
  }

  def predict(x: Array[Double]): Boolean = voteFraction(x) > 0.5
}

object RandomForest {
  /** Fit `nTrees` on bootstrap resamples of (xs, ys). */
  def fit(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Double],
          nTrees: Int, seed: Long): RandomForest = {
    val trees = (0 until nTrees).map { t =>
      val rng = new Rnd.Gen(Rnd.combine(seed, t))
      val boot = Array.fill(xs.length)(rng.nextInt(xs.length))
      DecisionTree.fit(xs, ys, boot, DecisionTree.Config(), rng)
    }
    new RandomForest(trees.toIndexedSeq)
  }
}
