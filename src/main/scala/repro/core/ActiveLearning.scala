package repro.core

import repro.data.ERDataset
import repro.index.NnIndex
import repro.util.Rnd
import scala.collection.mutable

/** Quantities tracked per round (the progressive curves of Figures 4–7). */
final case class RoundStat(round: Int, nLabeled: Int, candRecall: Double,
                           testF1: Double, allF1: Double)

/** Wall-clock seconds of one round's stages (paper Table 9): matcher
  * training, committee training, indexing and retrieval of CAND, scoring
  * CAND, and the selector call, which the loop times (0 in the final pass).
  * A stage a method does not have reads 0.
  */
final case class StageTimes(matcherSec: Double, committeeSec: Double, retrieveSec: Double,
                            scoreSec: Double, selectorSec: Double = 0.0) {
  /** Table 9's "Selection": scoring CAND, which feeds the selector, plus the selector call. */
  def selectionSec: Double = scoreSec + selectorSec
}

/** Outcome of one full run: one stat and one stage record per round (the
  * last for the final pass), the final |T|, and the final pass's CAND recall
  * and PRFs.
  */
final case class RunResult(method: String, dsName: String, roundStats: IndexedSeq[RoundStat],
                           stageTimes: IndexedSeq[StageTimes], candRecall: Double,
                           testPRF: PRF, allPRF: PRF, nLabeled: Int) {
  /** Table 9: the last labeling round's stage times; zeros when there is none. */
  def lastTimes: StageTimes =
    if (stageTimes.length < 2) StageTimes(0, 0, 0, 0) else stageTimes(stageTimes.length - 2)

  /** The find-all pass (Table 2's runtime and, at rounds = 0, Table 10's):
    * the final pass's retrieval and scoring.
    */
  def findAllSec: Double = stageTimes.last.retrieveSec + stageTimes.last.scoreSec
}

/** Algorithm 1's protocol, shared by every method of Table 2 (paper §3,
  * §4.3): from the seed T, each round evaluates CAND and asks the gold oracle
  * for up to B labels among its selectable pairs; a final pass (round
  * `rounds + 1`) is evaluated and labels nothing. The methods differ only in
  * the round function, which trains the learner and blocker on T; a method
  * without labeling (JedAI) is one final pass at rounds = 0.
  */
object ActiveLearning {

  /** One round's CAND in order (each pair once), each pair's duplicate
    * probability, the selector, which picks up to `budget` pairs from the
    * selectable CAND indices (neither labeled nor in the test split, in
    * CAND order), and the seconds of the stages before selection.
    */
  final case class Round(cand: IndexedSeq[(Int, Int)], probs: IndexedSeq[Double],
                         select: (IndexedSeq[Int], Int) => IndexedSeq[(Int, Int)],
                         times: StageTimes)

  /** `body`'s value and its wall-clock seconds: how every stage is timed. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** The initial labeled seed T every method starts from (paper §4.3):
    * `seedPos` duplicates and `seedNeg` negatives sampled outside the test
    * split. For the multilingual dataset, the only one that evaluates
    * `embedder`, they are drawn from the pairs an index of its pretrained
    * vectors retrieves (§4.5). Every call draws from a fresh generator.
    */
  def seedSet(ds: ERDataset, cfg: DialConfig, embedder: => Embedder): IndexedSeq[LabeledPair] = {
    require(ds.r.nonEmpty, s"dataset ${ds.name}: the R list is empty")
    require(ds.s.nonEmpty, s"dataset ${ds.name}: the S list is empty")
    val rng = new Rnd.Gen(Rnd.combine(cfg.seed, Rnd.hash64(ds.name)))
    def sample(pairs: IndexedSeq[(Int, Int)], n: Int, y: Boolean): IndexedSeq[LabeledPair] =
      rng.sampleDistinct(pairs.length, math.min(n, pairs.length)).toIndexedSeq
        .map(pairs).map { case (a, b) => LabeledPair(a, b, y) }
    if (ds.germanToEnglish.nonEmpty) { // probe with every s, split the retrieved pairs by gold, sample 50/50
      val views = IndexedSeq(new PlainView)
      val hits = NnIndex.probe(embedder.sBase, views, Blocker.buildIndexes(embedder.rBase, views), 3)
      val retrieved = hits.indices.flatMap(sId => hits(sId).head.map { case (rId, _) => (rId, sId) })
      val (dup, non) = retrieved.filterNot(ds.testSet.contains).partition(ds.dups.contains)
      return sample(dup, cfg.seedPos, y = true) ++ sample(non, cfg.seedNeg, y = false)
    }
    // R ids by token, for the hard negatives: R records that share a token with s
    lazy val tokenIndex = ds.r.flatMap(rec => rec.tokenSet.map(_ -> rec.id)).groupMap(_._1)(_._2)
    val pos = sample(ds.dups.toIndexedSeq.sorted.filterNot(ds.testSet.contains), cfg.seedPos, y = true)
    val negs = mutable.LinkedHashSet.empty[(Int, Int)]
    var attempts = 0
    while (negs.size < cfg.seedNeg && attempts < cfg.seedNeg * 200) {
      attempts += 1
      val s = ds.s(rng.nextInt(ds.s.size))
      val hard = negs.size % 2 == 0
      val rIdOpt =
        if (hard) {
          val toks = s.tokenSet.toIndexedSeq
          if (toks.isEmpty) None
          else tokenIndex.get(toks(rng.nextInt(toks.length)))
            .map(ids => ids(rng.nextInt(ids.length)))
        } else Some(rng.nextInt(ds.r.size))
      rIdOpt.foreach { rId =>
        val pair = (rId, s.id)
        if (!ds.dups.contains(pair) && !ds.testSet.contains(pair)) negs += pair
      }
    }
    require(negs.size == cfg.seedNeg,
      s"dataset ${ds.name}: found ${negs.size} of ${cfg.seedNeg} seed negatives")
    pos ++ negs.toIndexedSeq.map { case (a, b) => LabeledPair(a, b, y = false) }
  }

  def run(method: String, ds: ERDataset, seed: IndexedSeq[LabeledPair], rounds: Int, budget: Int)
         (round: (IndexedSeq[LabeledPair], Int) => Round): RunResult = {
    require(rounds >= 0, s"$method on ${ds.name}: rounds = $rounds is negative")
    var t = seed
    val labeled = mutable.HashSet.from(seed.map(lp => (lp.rId, lp.sId)))
    val stats = IndexedSeq.newBuilder[RoundStat]
    val stageTimes = IndexedSeq.newBuilder[StageTimes]
    var candRecall = 0.0
    var testPRF, allPRF = PRF(0, 0, 0)
    for (r <- 1 to rounds + 1) {
      Console.err.println(s"[al] $method ${ds.name} round=$r |T|=${t.length} |T_p|=${t.count(_.y)}")
      val Round(cand, probs, select, times) = round(t, r)
      val predicted = cand.indices.collect { case i if probs(i) > 0.5 => cand(i) }.toSet
      candRecall = Metrics.candRecall(cand, ds.dups)
      testPRF = Metrics.testEval(ds.testPairs, predicted)
      allPRF = Metrics.allPairs(predicted, ds.dups)
      stats += RoundStat(r, t.length, candRecall, testPRF.f1, allPRF.f1)
      if (r > rounds) stageTimes += times
      else {
        val selectable = cand.indices.filterNot(i => labeled(cand(i)) || ds.testSet(cand(i)))
        val (picked, selectorSec) = timed(select(selectable, budget))
        stageTimes += times.copy(selectorSec = selectorSec)
        val newly = picked.map { case p @ (a, b) => LabeledPair(a, b, ds.dups(p)) }
        t = t ++ newly
        labeled ++= newly.map(lp => (lp.rId, lp.sId))
      }
    }
    RunResult(method, ds.name, stats.result(), stageTimes.result(), candRecall, testPRF, allPRF, t.length)
  }
}
