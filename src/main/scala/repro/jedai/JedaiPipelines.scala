package repro.jedai

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ActiveLearning, PRF, RunResult, StageTimes}
import repro.core.ActiveLearning.timed
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

  /** Grid search of the matching threshold over the collected, distinct
    * (pair, jaccard) rows: the first threshold of maximal all-pairs F1.
    */
  private def bestThreshold(scored: IndexedSeq[((Int, Int), Double)], gold: Set[(Int, Int)]): Double =
    grid.maxBy { th =>
      val predicted = scored.filter(_._2 >= th)
      val tp = predicted.count(p => gold(p._1)).toLong
      PRF(tp, predicted.length - tp, gold.size - tp).f1
    }

  /** The key attribute a schema-based workflow would join on. */
  def keyAttr(ds: ERDataset): String =
    if (ds.schema.contains("title")) "title"
    else if (ds.schema.contains("description")) "description"
    else ds.schema.head

  def schemaBased(spark: SparkSession, ds: ERDataset): RunResult =
    run("JedAI:Schema-based", ds) {
      val attrs = Seq(keyAttr(ds))
      val rt = TokenBlocking.tokenTable(ds.rDF(spark), attrs)
      val st = TokenBlocking.tokenTable(ds.sDF(spark), attrs)
      TokenBlocking.withJaccard(TokenBlocking.sharedTokens(rt, st), rt, st)
        .filter(col("jac") >= grid.head)
    }

  def schemaAgnostic(spark: SparkSession, ds: ERDataset): RunResult =
    run("JedAI:Schema-agnostic", ds) {
      val rt = TokenBlocking.tokenTable(ds.rDF(spark), ds.schema)
      val st = TokenBlocking.tokenTable(ds.sDF(spark), ds.schema)
      TokenBlocking.withJaccard(MetaBlocking.weightedEdgePruning(TokenBlocking.sharedTokens(rt, st)), rt, st)
    }

  /** A workflow as one final pass of the AL loop, which labels nothing:
    * building and collecting the (rid, sid, jac) rows is its retrieval, the
    * threshold's grid search against the gold duplicates its scoring, and a
    * pair is a duplicate (probability 1) iff its Jaccard reaches the
    * threshold.
    */
  private def run(method: String, ds: ERDataset)(scoredDf: => DataFrame): RunResult =
    ActiveLearning.run(method, ds, IndexedSeq.empty, rounds = 0, budget = 0) { (_, _) =>
      val (scored, retrieveSec) = timed(scoredDf.collect().toIndexedSeq.map(r =>
        ((r.getInt(r.fieldIndex("rid")), r.getInt(r.fieldIndex("sid"))), r.getDouble(r.fieldIndex("jac")))))
      val (th, scoreSec) = timed(bestThreshold(scored, ds.dups))
      ActiveLearning.Round(scored.map(_._1), scored.map(p => if (p._2 >= th) 1.0 else 0.0),
        (_, _) => IndexedSeq.empty, StageTimes(0, 0, retrieveSec, scoreSec))
    }
}
