package repro.index

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.text.HashEmbedding
import scala.jdk.CollectionConverters._

/** Scores a record pair — broadcast into candidate-scoring scans.
  *
  * The program scores on the driver (`Dial` and `RfAl`); this, with
  * [[SparkKnn.scorePairs]] and `core.MatcherScorer`, stays only because the
  * benchmark's layer-by-layer replay (`dialbench/Replay.scala`) scores CAND
  * through them.
  */
trait PairScorer extends Serializable {
  def prob(rAttrs: Seq[String], sAttrs: Seq[String]): Double
}

/** DataFrame forms of retrieval and scoring for the benchmark harness
  * (`dialbench/`). No program path calls them: the program retrieves and
  * scores on the driver.
  */
object SparkKnn {

  private val retrieveSchema = StructType(Array(
    StructField("sid", IntegerType, nullable = false),
    StructField("rid", IntegerType, nullable = false),
    StructField("dist", DoubleType, nullable = false),
    StructField("member", IntegerType, nullable = false)))

  /** Top-`k` R-neighbours of every record of `sDf` under every committee
    * view, as (sid, rid, dist, member) rows, before CAND's dedup and cut.
    * Benchmark-only (`dialbench/Probes.scala` counts distinct hits with it):
    * it collects `sDf`, encodes each record once with `emb` and runs
    * [[NnIndex.probe]], the probe `core.Blocker.retrieveCand` runs.
    */
  def retrieveMulti(spark: SparkSession, sDf: DataFrame, attrCols: Seq[String],
                    emb: HashEmbedding, views: IndexedSeq[EmbView],
                    indexes: IndexedSeq[NnIndex], k: Int): DataFrame = {
    import org.apache.spark.sql.functions.col
    val records = sDf.select((Seq("id") ++ attrCols).map(col): _*).collect()
    val base = records.map { row =>
      emb.recordVec((1 until row.length).map(i => Option(row.getString(i)).getOrElse("")))
    }
    val hits = NnIndex.probe(base, views, indexes, k)
    val rows = for {
      (row, perMember) <- records.toSeq.zip(hits)
      (memberHits, m) <- perMember.zipWithIndex
      (rid, d) <- memberHits
    } yield Row(row.getInt(0), rid, d, m)
    spark.createDataFrame(rows.asJava, retrieveSchema)
  }

  private val scoreSchema = StructType(Array(
    StructField("rid", IntegerType, nullable = false),
    StructField("sid", IntegerType, nullable = false),
    StructField("prob", DoubleType, nullable = false)))

  /** Matcher probabilities over a candidate-pair DataFrame (rid, sid).
    * Record attribute maps are broadcast (both lists fit comfortably);
    * the scorer runs as a partition-local scan — the "matcher scoring as a
    * UDF over partitioned data" dataflow. No program path calls it; it stays
    * for the benchmark replay (see [[PairScorer]]), whose probabilities equal
    * `Dial`'s driver scoring exactly.
    */
  def scorePairs(spark: SparkSession, pairs: DataFrame,
                 rAttrs: Map[Int, IndexedSeq[String]], sAttrs: Map[Int, IndexedSeq[String]],
                 scorer: PairScorer): DataFrame = {
    import org.apache.spark.sql.functions.col
    val bcR = spark.sparkContext.broadcast(rAttrs)
    val bcS = spark.sparkContext.broadcast(sAttrs)
    val bcScorer = spark.sparkContext.broadcast(scorer)
    val rdd = pairs.select(col("rid"), col("sid")).rdd.mapPartitions { rows =>
      val r = bcR.value; val s = bcS.value; val sc = bcScorer.value
      rows.map { row =>
        val rid = row.getInt(0); val sid = row.getInt(1)
        Row(rid, sid, sc.prob(r(rid), s(sid)))
      }
    }
    spark.createDataFrame(rdd, scoreSchema)
  }
}
