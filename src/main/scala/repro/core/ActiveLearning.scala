package repro.core

import repro.data.ERDataset
import scala.collection.mutable

/** Quantities tracked per round (the progressive curves of Figures 4–7). */
final case class RoundStat(round: Int, nLabeled: Int, candRecall: Double,
                           testF1: Double, allF1: Double)

/** Algorithm 1's protocol, shared by every AL method of Table 2 (paper §3,
  * §4.3): from the seed T, each round evaluates CAND and asks the gold oracle
  * for up to B labels among its selectable pairs; a final pass (round
  * `rounds + 1`) is evaluated and labels nothing. The methods differ only in
  * the round function, which trains the learner and blocker on T.
  */
object ActiveLearning {

  /** One round's CAND in order (each pair once), each pair's duplicate
    * probability, and the selector, which picks up to `budget` pairs from
    * the selectable CAND indices (neither labeled nor in the test split, in
    * CAND order).
    */
  final case class Round(cand: IndexedSeq[(Int, Int)], probs: IndexedSeq[Double],
                         select: (IndexedSeq[Int], Int) => IndexedSeq[(Int, Int)])

  /** Per-round stats, the final |T|, and the final pass's CAND recall and PRFs. */
  final case class Outcome(stats: IndexedSeq[RoundStat], nLabeled: Int,
                           candRecall: Double, testPRF: PRF, allPRF: PRF)

  def run(ds: ERDataset, seed: IndexedSeq[LabeledPair], rounds: Int, budget: Int)
         (round: (IndexedSeq[LabeledPair], Int) => Round): Outcome = {
    var t = seed
    val labeled = mutable.HashSet.from(seed.map(lp => (lp.rId, lp.sId)))
    val stats = IndexedSeq.newBuilder[RoundStat]
    var last = Outcome(IndexedSeq.empty, 0, 0.0, PRF(0, 0, 0), PRF(0, 0, 0))
    for (r <- 1 to rounds + 1) {
      val Round(cand, probs, select) = round(t, r)
      val predicted = cand.indices.collect { case i if probs(i) > 0.5 => cand(i) }.toSet
      last = Outcome(IndexedSeq.empty, t.length, Metrics.candRecall(cand, ds.dups),
                     Metrics.testEval(ds.testPairs, predicted), Metrics.allPairs(predicted, ds.dups))
      stats += RoundStat(r, t.length, last.candRecall, last.testPRF.f1, last.allPRF.f1)
      if (r <= rounds) {
        val selectable = cand.indices.filterNot(i => labeled(cand(i)) || ds.testSet(cand(i)))
        val newly = select(selectable, budget).map { case p @ (a, b) => LabeledPair(a, b, ds.dups(p)) }
        t = t ++ newly
        labeled ++= newly.map(lp => (lp.rId, lp.sId))
      }
    }
    last.copy(stats = stats.result())
  }
}
