package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.ERDataset
import repro.index.{EmbView, ExactIndex, NnIndex}
import repro.text.HashEmbedding
import repro.util.Par

/** One candidate pair surfaced by blocking; `dist` is the smallest squared-L2
  * distance across the committee members that retrieved it.
  */
final case class CandPair(rId: Int, sId: Int, dist: Double)

/** Index-By-Committee retrieval (paper §3.2.1, Algorithm 1 lines 10–24), on
  * the driver.
  *
  * Each member indexes its view of R's base embeddings (exact search, the
  * FAISS substitute) and is probed by every record of S through the same
  * view of that record's cached base embedding; the union of all members'
  * top-k lists, deduplicated by closest distance, is cut to the `candSize`
  * closest pairs to form CAND.
  */
object Blocker {

  /** Per-member exact index over R built from driver-side base embeddings,
    * projected through the member's view a chunk at a time
    * ([[NnIndex.project]]). Each index is a pure function of its view, so
    * the members' indexes are built concurrently.
    */
  def buildIndexes(rBase: Array[Array[Double]], views: IndexedSeq[EmbView]): IndexedSeq[NnIndex] =
    Par.tabulate(views.length)(k => new ExactIndex(NnIndex.project(views(k), rBase)): NnIndex)

  /** CAND ordering: distance, then R id, then S id (a total order, since
    * the pairs are distinct, so any sort of them gives one result).
    */
  private val byDistThenIds: Ordering[CandPair] = (a, b) => {
    val c = java.lang.Double.compare(a.dist, b.dist)
    if (c != 0) c
    else if (a.rId != b.rId) Integer.compare(a.rId, b.rId)
    else Integer.compare(a.sId, b.sId)
  }

  /** The deduplicated hits of one chunk of S records, `n` of them: pair i
    * is (`rIds(i)`, `sIds(i)`) at distance `dists(i)`.
    */
  private final class Union(val rIds: Array[Int], val sIds: Array[Int], val dists: Array[Double], val n: Int)

  /** CAND: every S record (`sBase`, indexed by S id) probes every member's
    * index for its top `k`; each (r, s) pair keeps its smallest distance
    * over the members, and the pairs ordered by (distance, r id, s id) are
    * cut to the first `candSize`. The hits stay in primitive arrays: each
    * chunk of S records is deduplicated concurrently (an s has at most N·k
    * hits, so a scan over them suffices), the `candSize`-th smallest
    * distance is found by a parallel sort of the distances, and only the
    * pairs at or below it become [[CandPair]]s, sorted on the common
    * fork-join pool. The order is total, so CAND does not depend on the
    * thread count.
    */
  def retrieveCand(sBase: Array[Array[Double]], views: IndexedSeq[EmbView],
                   indexes: IndexedSeq[NnIndex], k: Int, candSize: Int): IndexedSeq[CandPair] = {
    val hits = NnIndex.probeHits(sBase, views, indexes, k)
    val cap = hits.map(_.headOption.fold(0)(_.perQuery)).sum
    val chunks = Par.tabulate((sBase.length + NnIndex.Chunk - 1) / NnIndex.Chunk) { c =>
      val from = c * NnIndex.Chunk
      val until = math.min(from + NnIndex.Chunk, sBase.length)
      val rIds = new Array[Int]((until - from) * cap)
      val sIds = new Array[Int](rIds.length)
      val dists = new Array[Double](rIds.length)
      var n = 0
      var sId = from
      while (sId < until) {
        val first = n
        hits.foreach { byChunk =>
          val h = byChunk(c)
          val at = (sId - from) * h.perQuery
          var i = at
          while (i < at + h.perQuery) {
            val rId = h.ids(i); val d = h.dists(i)
            var j = first
            while (j < n && rIds(j) != rId) j += 1
            if (j == n) { rIds(n) = rId; sIds(n) = sId; dists(n) = d; n += 1 }
            else if (d < dists(j)) dists(j) = d
            i += 1
          }
        }
        sId += 1
      }
      new Union(rIds, sIds, dists, n)
    }
    cut(chunks, candSize)
  }

  /** The first `candSize` pairs of `chunks` by (distance, r id, s id). */
  private def cut(chunks: IndexedSeq[Union], candSize: Int): IndexedSeq[CandPair] = {
    val total = chunks.map(_.n).sum
    if (candSize <= 0 || total == 0) return IndexedSeq.empty
    // the candSize-th smallest distance, in Double.compare order, bounds CAND
    val limit =
      if (total <= candSize) Double.NaN // the greatest distance under Double.compare
      else {
        val dists = new Array[Double](total)
        var at = 0
        chunks.foreach { u => System.arraycopy(u.dists, 0, dists, at, u.n); at += u.n }
        java.util.Arrays.parallelSort(dists)
        dists(candSize - 1)
      }
    val kept = Array.newBuilder[CandPair]
    chunks.foreach { u =>
      var i = 0
      while (i < u.n) {
        if (java.lang.Double.compare(u.dists(i), limit) <= 0) kept += CandPair(u.rIds(i), u.sIds(i), u.dists(i))
        i += 1
      }
    }
    val sorted = kept.result()
    java.util.Arrays.parallelSort(sorted, byDistThenIds)
    sorted.take(candSize).toIndexedSeq
  }

  /** Benchmark-only adapter: the signature `dialbench/Replay.scala` compiles
    * against. It encodes S (`ds.s`, in id order) with `emb` and runs the
    * driver path above. `spark` is not used, and `sDf` is by-name and never
    * evaluated, so a caller's lazily cached S DataFrame is not built.
    */
  def retrieveCand(spark: SparkSession, ds: ERDataset, sDf: => DataFrame,
                   emb: HashEmbedding, views: IndexedSeq[EmbView],
                   indexes: IndexedSeq[NnIndex], k: Int, candSize: Int): IndexedSeq[CandPair] =
    retrieveCand(ds.s.map(rec => emb.recordVec(rec.attrs)).toArray, views, indexes, k, candSize)
}
