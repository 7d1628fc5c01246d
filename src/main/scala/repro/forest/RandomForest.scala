package repro.forest

import repro.util.Rnd

/** Bagged forest of CART trees — the learner of the paper's strongest
  * non-TPLM baseline ("random forests with learner-aware QBC perform
  * remarkably well", Meduri et al.). Bootstrap per tree doubles as the
  * committee construction of Mozafari et al.'s QBC.
  */
final class RandomForest(val trees: IndexedSeq[TreeNode]) {

  /** Fraction of trees voting duplicate — both the prediction probability
    * and the committee's #match/m, whose p(1 − p) is the QBC variance
    * (Mozafari et al.) that [[RfAl]] ranks by.
    */
  def voteFraction(x: Array[Double]): Double = {
    var votes = 0
    trees.foreach(t => if (DecisionTree.predict(t, x) > 0.5) votes += 1)
    votes.toDouble / trees.length
  }
}

object RandomForest {
  /** Trees per forest. */
  private[forest] val NTrees = 20

  /** Fit [[NTrees]] trees on bootstrap resamples of (xs, ys). */
  def fit(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Double], seed: Long): RandomForest = {
    val trees = (0 until NTrees).map { t =>
      val rng = new Rnd.Gen(Rnd.combine(seed, t))
      val boot = Array.fill(xs.length)(rng.nextInt(xs.length))
      DecisionTree.fit(xs, ys, boot, rng)
    }
    new RandomForest(trees.toIndexedSeq)
  }
}
