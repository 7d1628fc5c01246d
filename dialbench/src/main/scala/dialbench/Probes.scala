package dialbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, countDistinct}
import repro.core.Embedder
import repro.data.ERDataset
import repro.index.SparkKnn

/** Counters that need work of their own, run after the traced replay so
  * they never fall inside a span.
  */
object Probes {

  /** Distinct (r, s) pairs among the committee's raw top-k hits in the
    * final round, before CAND's dedup and cut.
    */
  def distinctHits(spark: SparkSession, ds: ERDataset, embedder: Embedder,
                   out: ReplayOutcome, k: Int): Long = {
    val hits = SparkKnn.retrieveMulti(spark, ds.sDF(spark), ds.schema, embedder.emb,
      out.finalViews, out.finalIndexes, k)
    hits.agg(countDistinct(col("rid"), col("sid"))).head().getLong(0)
  }
}
