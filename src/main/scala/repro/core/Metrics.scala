package repro.core

import repro.data.TestPair

/** Precision/recall/F1 from confusion counts. All figures in [0, 100]. */
final case class PRF(tp: Long, fp: Long, fn: Long) {
  def p: Double = if (tp + fp == 0) 0.0 else 100.0 * tp / (tp + fp)
  def r: Double = if (tp + fn == 0) 0.0 else 100.0 * tp / (tp + fn)
  def f1: Double = {
    val pp = p; val rr = r
    if (pp + rr == 0) 0.0 else 2 * pp * rr / (pp + rr)
  }
  override def toString: String = f"P=$p%.1f R=$r%.1f F1=$f1%.1f"
}

/** The paper's three evaluation measures (§4.1): CAND recall, test-set F1,
  * and all-pairs F1, computed on the driver inside the AL loop.
  */
object Metrics {

  /** All-pairs evaluation: predicted duplicate set vs the gold DUPS. */
  def allPairs(predicted: Set[(Int, Int)], gold: Set[(Int, Int)]): PRF = {
    val tp = predicted.count(gold.contains).toLong
    PRF(tp, predicted.size - tp, gold.size - tp)
  }

  /** Recall of the candidate set: fraction of DUPS retrieved in CAND (×100). */
  def candRecall(cand: Iterable[(Int, Int)], gold: Set[(Int, Int)]): Double = {
    if (gold.isEmpty) 0.0
    else {
      val hit = cand.iterator.count(gold.contains)
      100.0 * hit / gold.size
    }
  }

  /** Test-set evaluation: the overall system predicts duplicate iff the pair
    * is in CAND and the matcher assigns probability > 0.5.
    */
  def testEval(testPairs: IndexedSeq[TestPair], predicted: Set[(Int, Int)]): PRF = {
    var tp = 0L; var fp = 0L; var fn = 0L
    testPairs.foreach { t =>
      val pred = predicted.contains((t.rId, t.sId))
      if (pred && t.label) tp += 1
      else if (pred && !t.label) fp += 1
      else if (!pred && t.label) fn += 1
    }
    PRF(tp, fp, fn)
  }
}
