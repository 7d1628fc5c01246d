package dialbench

import repro.core.{Committee, Embedder}
import repro.util.Rnd

/** A kernel timing: median of `samples` warmed single-thread calls. */
final case class KernelTiming(medianUs: Double, samples: Int)

/** Warmed single-thread timings of the three hot kernels, taken on the
  * final state of the traced replay.
  */
object Kernels {

  private def timeEach(warm: Int, reps: Int)(call: Int => Unit): KernelTiming = {
    (0 until warm).foreach(call)
    val us = Array.tabulate(reps) { i =>
      val t0 = System.nanoTime()
      call(i)
      (System.nanoTime() - t0) / 1e3
    }
    KernelTiming(Stats.median(us.toIndexedSeq), reps)
  }

  /** `NnIndex.search` per query on the final index of the first member. */
  def indexSearch(out: ReplayOutcome, embedder: Embedder, k: Int): KernelTiming = {
    val view = out.finalViews.head
    val index = out.finalIndexes.head
    val nq = math.min(256, embedder.sBase.length)
    val step = embedder.sBase.length / nq
    val queries = Array.tabulate(nq)(i => view(embedder.sBase(i * step)))
    timeEach(warm = 4 * nq, reps = 8 * nq)(i => index.search(queries(i % nq), k))
  }

  /** `PairFeaturizer.scalars` per pair over evenly spaced pairs of the final CAND. */
  def pairFeatures(out: ReplayOutcome, embedder: Embedder): KernelTiming = {
    val ds = embedder.ds
    val n = math.min(1500, out.finalCand.length)
    val step = out.finalCand.length / n
    val pairs = Array.tabulate(n) { i =>
      val c = out.finalCand(i * step)
      (ds.rById(c.rId).attrs, ds.sById(c.sId).attrs)
    }
    timeEach(warm = n / 2, reps = n) { i =>
      val (r, s) = pairs(i % n)
      embedder.featurizer.scalars(r, s)
    }
  }

  /** One contrastive step of one member through the public
    * `Committee.train` (one epoch over exactly one batch of positives).
    */
  def committeeStep(out: ReplayOutcome, embedder: Embedder, d: Int, maskP: Double): KernelTiming = {
    val g = out.finalMatcher.g
    val batch = Committee.TrainConfig().batch
    val pos = Iterator.continually(out.finalPositives).flatten.take(batch).map { lp =>
      (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g))
    }.toIndexedSeq
    val rPool = embedder.rBase.indices.map(embedder.adaptedR(_, g))
    val sPool = embedder.sBase.indices.map(embedder.adaptedS(_, g))
    val com = Committee.init(1, d, maskP, seed = 1L)
    val cfg = Committee.TrainConfig(epochs = 1)
    val rng = new Rnd.Gen(2L)
    timeEach(warm = 100, reps = 300)(_ => Committee.train(com, cfg, pos, rPool, sPool, IndexedSeq.empty, rng))
  }
}

object Stats {
  def median(xs: IndexedSeq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
