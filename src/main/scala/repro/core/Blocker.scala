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
  def buildIndexes(rBase: Array[Array[Double]], views: IndexedSeq[EmbView]): IndexedSeq[NnIndex] = {
    val ids = Array.tabulate(rBase.length)(identity)
    Par.tabulate(views.length)(k => new ExactIndex(ids, NnIndex.project(views(k), rBase)): NnIndex)
  }

  /** CAND ordering: distance, then R id, then S id (a total order, since
    * the pairs are distinct, so any sort of them gives one result).
    */
  private val byDistThenIds: Ordering[CandPair] = (a, b) => {
    val c = java.lang.Double.compare(a.dist, b.dist)
    if (c != 0) c
    else if (a.rId != b.rId) Integer.compare(a.rId, b.rId)
    else Integer.compare(a.sId, b.sId)
  }

  /** CAND: every S record (`sBase`, indexed by S id) probes every member's
    * index for its top `k`; each (r, s) pair keeps its smallest distance
    * over the members, and the pairs ordered by (distance, r id, s id) are
    * cut to the first `candSize`. An s has at most N·k hits, so its pairs
    * are deduplicated by a scan over them. The pairs are sorted on the
    * common fork-join pool (`Arrays.parallelSort`); the order is total, so
    * CAND does not depend on the thread count.
    */
  def retrieveCand(sBase: Array[Array[Double]], views: IndexedSeq[EmbView],
                   indexes: IndexedSeq[NnIndex], k: Int, candSize: Int): IndexedSeq[CandPair] = {
    val hits = NnIndex.probe(sBase, views, indexes, k)
    val union = Array.newBuilder[CandPair]
    val cap = indexes.map(ix => math.min(math.max(k, 0), ix.size)).sum
    val rIds = new Array[Int](cap)
    val dists = new Array[Double](cap)
    hits.indices.foreach { sId =>
      var n = 0
      hits(sId).foreach(_.foreach { case (rId, d) =>
        var i = 0
        while (i < n && rIds(i) != rId) i += 1
        if (i == n) { rIds(n) = rId; dists(n) = d; n += 1 }
        else if (d < dists(i)) dists(i) = d
      })
      var i = 0
      while (i < n) { union += CandPair(rIds(i), sId, dists(i)); i += 1 }
    }
    val sorted = union.result()
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
