package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.ERDataset
import repro.index.{EmbView, ExactIndex, NnIndex}
import repro.text.HashEmbedding
import repro.util.Par
import scala.collection.mutable

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

  /** Per-member exact index over R built from driver-side base embeddings.
    * Each index is a pure function of its view, so the members' indexes are
    * built concurrently.
    */
  def buildIndexes(rBase: Array[Array[Double]], views: IndexedSeq[EmbView]): IndexedSeq[NnIndex] = {
    val ids = Array.tabulate(rBase.length)(identity)
    Par.tabulate(views.length)(k => new ExactIndex(ids, rBase.map(views(k).apply)): NnIndex)
  }

  /** CAND ordering: distance, then R id, then S id (a total order, since
    * the pairs are distinct).
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
    * cut to the first `candSize`.
    */
  def retrieveCand(sBase: Array[Array[Double]], views: IndexedSeq[EmbView],
                   indexes: IndexedSeq[NnIndex], k: Int, candSize: Int): IndexedSeq[CandPair] = {
    val hits = NnIndex.probe(sBase, views, indexes, k)
    val union = mutable.ArrayBuffer.empty[CandPair]
    val closest = mutable.HashMap.empty[Int, Double]
    hits.indices.foreach { sId =>
      closest.clear()
      hits(sId).foreach(_.foreach { case (rId, d) =>
        if (closest.get(rId).forall(d < _)) closest(rId) = d
      })
      closest.foreach { case (rId, d) => union += CandPair(rId, sId, d) }
    }
    union.sortInPlace()(byDistThenIds).take(candSize).toIndexedSeq
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
