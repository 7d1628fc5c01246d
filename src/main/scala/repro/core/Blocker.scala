package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.ERDataset
import repro.index.{EmbView, ExactIndex, NnIndex, SparkKnn}
import repro.text.HashEmbedding
import repro.util.Par

/** One candidate pair surfaced by blocking; `dist` is the smallest squared-L2
  * distance across the committee members that retrieved it.
  */
final case class CandPair(rId: Int, sId: Int, dist: Double)

/** Index-By-Committee retrieval (paper §3.2.1, Algorithm 1 lines 10–24).
  *
  * Each member indexes its view of R's embeddings (broadcast,
  * FAISS-substitute) and is probed by every record of S in one distributed
  * scan that computes the shared base embedding once per record; the union
  * of all members' top-k lists, deduplicated by closest distance, is cut to
  * the `candSize` closest pairs to form CAND.
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

  /** Retrieve CAND via the fused committee scan.
    * `sDf` must carry columns `id` + the dataset schema (cached by caller).
    */
  def retrieveCand(spark: SparkSession, ds: ERDataset, sDf: DataFrame,
                   emb: HashEmbedding, views: IndexedSeq[EmbView],
                   indexes: IndexedSeq[NnIndex], k: Int, candSize: Int): IndexedSeq[CandPair] = {
    val hits = SparkKnn.retrieveMulti(spark, sDf, ds.schema, emb, views, indexes, k)
    val cand = hits
      .groupBy(col("rid"), col("sid"))
      .agg(min(col("dist")).as("dist"))
      .orderBy(col("dist").asc, col("rid").asc, col("sid").asc)
      .limit(candSize)
    cand.collect().map(r => CandPair(r.getInt(0), r.getInt(1), r.getDouble(2))).toIndexedSeq
  }
}
