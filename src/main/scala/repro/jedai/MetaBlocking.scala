package repro.jedai

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Meta-blocking (Papadakis et al.): treat the block collection as a graph
  * whose edges are candidate pairs weighted by co-occurrence, then prune.
  *
  * We implement CBS edge weighting (weight = number of shared blocks, the
  * `cnt` of [[TokenBlocking.sharedTokens]]) with Weighted Edge Pruning (WEP):
  * keep every edge whose weight exceeds the global mean weight.
  */
object MetaBlocking {

  /** WEP over a (rid, sid, cnt) edge table. */
  def weightedEdgePruning(pairs: DataFrame): DataFrame = {
    val mean = pairs.agg(avg(col("cnt"))).head().getDouble(0)
    pairs.filter(col("cnt") > mean)
  }
}
