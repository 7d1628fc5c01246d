package repro.jedai

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Metrics, OpTimes, PRF, RoundStat, RunResult}
import repro.data.ERDataset

/** The two JedAI workflow families the paper compares against (§4.3):
  *
  *  - schema-based: a similarity join (Jaccard over the key attribute's
  *    tokens) with the threshold grid-searched against the gold duplicates,
  *    exactly the "best configuration found through grid search using DUPS"
  *    protocol of the paper;
  *  - schema-agnostic: token blocking over all attributes, CBS-weighted
  *    meta-blocking with weighted edge pruning, then Jaccard matching with a
  *    grid-searched threshold.
  */
object JedaiPipelines {

  private val grid: Seq[Double] = BigDecimal(0.10) to BigDecimal(0.90) by BigDecimal(0.05) map (_.toDouble)

  /** Grid search the matching threshold on collected (pair, jaccard) rows;
    * the first threshold of maximal F1 wins.
    */
  private def bestThreshold(scored: Array[((Int, Int), Double)],
                            gold: Set[(Int, Int)]): (Double, PRF) =
    grid.map(th => (th, Metrics.allPairs(predictedAt(scored, th), gold))).maxBy(_._2.f1)

  private def predictedAt(scored: Array[((Int, Int), Double)], th: Double): Set[(Int, Int)] =
    scored.collect { case (p, j) if j >= th => p }.toSet

  /** The key attribute a schema-based workflow would join on. */
  def keyAttr(ds: ERDataset): String =
    if (ds.schema.contains("title")) "title"
    else if (ds.schema.contains("description")) "description"
    else ds.schema.head

  def schemaBased(spark: SparkSession, ds: ERDataset): RunResult = {
    val t0 = System.nanoTime()
    val attrs = Seq(keyAttr(ds))
    val rt = TokenBlocking.tokenTable(ds.rDF(spark), attrs)
    val st = TokenBlocking.tokenTable(ds.sDF(spark), attrs)
    val scored = TokenBlocking.withJaccard(TokenBlocking.sharedTokens(rt, st), rt, st)
      .filter(col("jac") >= grid.head)
    evaluate("JedAI:Schema-based", ds, scored, t0)
  }

  def schemaAgnostic(spark: SparkSession, ds: ERDataset): RunResult = {
    val t0 = System.nanoTime()
    val rt = TokenBlocking.tokenTable(ds.rDF(spark), ds.schema)
    val st = TokenBlocking.tokenTable(ds.sDF(spark), ds.schema)
    val pruned = MetaBlocking.weightedEdgePruning(TokenBlocking.sharedTokens(rt, st))
    evaluate("JedAI:Schema-agnostic", ds, TokenBlocking.withJaccard(pruned, rt, st), t0)
  }

  /** Collects the (rid, sid, jac) rows, grid-searches the threshold against
    * the gold duplicates and evaluates the predictions it selects; the
    * find-all time runs from `t0` to the threshold choice.
    */
  private def evaluate(method: String, ds: ERDataset, scoredDf: DataFrame,
                       t0: Long): RunResult = {
    val scored = scoredDf.collect().map(r =>
      ((r.getInt(r.fieldIndex("rid")), r.getInt(r.fieldIndex("sid"))), r.getDouble(r.fieldIndex("jac"))))
    val (th, prf) = bestThreshold(scored, ds.dups)
    val sec = (System.nanoTime() - t0) / 1e9
    val testPRF = Metrics.testEval(ds.testPairs, predictedAt(scored, th))
    val recall = Metrics.candRecall(scored.map(_._1), ds.dups)
    RunResult(method, ds.name,
      IndexedSeq(RoundStat(1, 0, recall, testPRF.f1, prf.f1)),
      recall, testPRF, prf, OpTimes(0, 0, 0, 0), sec, 0)
  }
}
