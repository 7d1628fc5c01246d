package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rnd

class SelectorsSpec extends AnyFunSuite {

  private def ctx(seed: Long = 1,
                  grad: ScoredCand => Array[Double] = c => Array(c.prob, c.dist),
                  boot: IndexedSeq[ScoredCand] => IndexedSeq[Array[Double]] =
                    cs => IndexedSeq(cs.map(_.prob).toArray)): SelectorCtx =
    SelectorCtx(new Rnd.Gen(seed), grad, boot)

  private def cand(r: Int, s: Int, dist: Double, prob: Double) = ScoredCand(r, s, dist, prob)

  private val cands: IndexedSeq[ScoredCand] = IndexedSeq(
    cand(0, 0, 0.1, 0.99), cand(0, 1, 0.5, 0.55), cand(1, 0, 0.9, 0.05),
    cand(1, 1, 0.3, 0.45), cand(2, 0, 0.7, 0.92), cand(2, 1, 0.2, 0.20),
    cand(3, 0, 0.4, 0.60), cand(3, 1, 0.8, 0.01))

  test("entropy peaks at 0.5 and vanishes at extremes") {
    assert(Selectors.entropy(0.5) > Selectors.entropy(0.4))
    assert(Selectors.entropy(0.4) == Selectors.entropy(0.6))
    assert(Selectors.entropy(0.0) < 1e-9)
    assert(Selectors.entropy(1.0) < 1e-9)
  }

  test("entropy handles out-of-range probabilities gracefully") {
    assert(!Selectors.entropy(-0.01).isNaN)
    assert(!Selectors.entropy(1.01).isNaN)
  }

  test("empty candidates yield empty selection") {
    assert(Selectors.select(UncertaintySel, IndexedSeq.empty, 5, ctx()).isEmpty)
  }

  test("budget larger than candidates returns all") {
    assert(Selectors.select(RandomSel, cands, 100, ctx()).length == cands.length)
  }

  test("random selection is within candidates, distinct, budget-sized") {
    val sel = Selectors.select(RandomSel, cands, 4, ctx())
    assert(sel.length == 4)
    assert(sel.distinct.length == 4)
    assert(sel.forall(p => cands.exists(c => (c.rId, c.sId) == p)))
  }

  test("random selection is deterministic in the ctx seed") {
    assert(Selectors.select(RandomSel, cands, 4, ctx(7)) ==
           Selectors.select(RandomSel, cands, 4, ctx(7)))
  }

  test("greedy picks the closest pairs") {
    val sel = Selectors.select(GreedySel, cands, 3, ctx())
    assert(sel == IndexedSeq((0, 0), (2, 1), (1, 1)))
  }

  test("uncertainty picks probabilities nearest 0.5") {
    val sel = Selectors.select(UncertaintySel, cands, 3, ctx())
    assert(sel.toSet == Set((0, 1), (1, 1), (3, 0)))
  }

  test("uncertainty ranks 0.55 above 0.92") {
    val sel = Selectors.select(UncertaintySel, cands, 1, ctx())
    assert(sel.head == ((0, 1)) || sel.head == ((1, 1))) // 0.55 and 0.45 tie in entropy
  }

  test("partition-2 takes least-confident positives and negatives alternately") {
    val sel = Selectors.select(Partition2, cands, 4, ctx())
    // positives by entropy desc: (0,1).55, (3,0).60, (2,0).92, (0,0).99
    // negatives by entropy desc: (1,1).45, (2,1).20, (1,0).05, (3,1).01
    assert(sel.take(2).toSet == Set((0, 1), (1, 1)))
    assert(sel.toSet == Set((0, 1), (1, 1), (3, 0), (2, 1)))
  }

  test("partition-2 fills from the other side when one side is empty") {
    val onlyPos = cands.map(c => c.copy(prob = 0.8))
    val sel = Selectors.select(Partition2, onlyPos, 4, ctx())
    assert(sel.length == 4)
  }

  test("partition-4 returns budget-many distinct pairs from all quarters") {
    val sel = Selectors.select(Partition4, cands, 8, ctx())
    assert(sel.length == 8)
    assert(sel.distinct.length == 8)
    // most confident positive (0,0) and most confident negative (3,1) included
    assert(sel.contains((0, 0)))
    assert(sel.contains((3, 1)))
    // least confident of each side included too
    assert(sel.contains((0, 1)))
    assert(sel.contains((1, 1)))
  }

  test("QBC uses committee mean entropy") {
    // committee disagrees maximally on (1,0): members say 0.0 and 1.0 -> mean 0.5
    val boot = (cs: IndexedSeq[ScoredCand]) => IndexedSeq(
      cs.map(c => if ((c.rId, c.sId) == ((1, 0))) 0.0 else 0.9).toArray,
      cs.map(c => if ((c.rId, c.sId) == ((1, 0))) 1.0 else 0.9).toArray)
    val sel = Selectors.select(QbcSel, cands, 1, ctx(boot = boot))
    assert(sel == IndexedSeq((1, 0)))
  }

  test("BADGE returns budget-many distinct pairs") {
    val sel = Selectors.select(BadgeSel, cands, 5, ctx())
    assert(sel.length == 5)
    assert(sel.distinct.length == 5)
  }

  test("BADGE spreads across the gradient-embedding space") {
    // two tight clusters in gradient space; with budget 2, k-means++ should
    // pick one from each far more often than not — deterministic seed here
    val grads = Map(
      (0, 0) -> Array(0.0, 0.0), (0, 1) -> Array(0.01, 0.0), (1, 0) -> Array(0.0, 0.01),
      (1, 1) -> Array(10.0, 10.0), (2, 0) -> Array(10.01, 10.0), (2, 1) -> Array(10.0, 10.01))
    val cs = grads.keys.toIndexedSeq.sorted.map { case (r, s) => cand(r, s, 0.5, 0.5) }
    val sel = Selectors.select(BadgeSel, cs, 2, ctx(seed = 3, grad = c => grads((c.rId, c.sId))))
    val d = repro.ml.Vec.distSq(grads(sel(0)), grads(sel(1)))
    assert(d > 1.0, s"BADGE picked two nearby points: $sel")
  }

  test("all strategies respect the budget") {
    val strategies = Seq(RandomSel, GreedySel, UncertaintySel, Partition2, Partition4, QbcSel, BadgeSel)
    for (b <- Seq(3, 0); st <- strategies) {
      val sel = Selectors.select(st, cands, b, ctx())
      assert(sel.length <= b, s"${st.name} b=$b")
      assert(sel.distinct.length == sel.length, s"${st.name} b=$b")
    }
  }

  test("strategy names match the paper's Table 8 rows") {
    assert(Seq(RandomSel, GreedySel, Partition2, Partition4, QbcSel, BadgeSel, UncertaintySel)
      .map(_.name) == Seq("Random", "Greedy", "Partition-2", "Partition-4", "QBC", "BADGE", "Uncertainty"))
  }
}
