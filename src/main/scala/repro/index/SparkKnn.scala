package repro.index

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.text.HashEmbedding

/** A view over the shared base embedding E(x): identity (PairedFixed),
  * matcher scale g ⊙ · (PairedAdapt), or a committee member's head (IBC).
  * Views are cheap; the base encoding they share is the expensive part —
  * this is the structure that keeps IBC's testing time nearly flat in the
  * committee size (paper Table 10).
  */
trait EmbView extends Serializable {
  def apply(base: Array[Double]): Array[Double]
}

/** Scores a record pair — broadcast into candidate-scoring scans. */
trait PairScorer extends Serializable {
  def prob(rAttrs: Seq[String], sAttrs: Seq[String]): Double
}

/** Distributed pieces of the blocking/matching dataflow.
  *
  * The R-side indexes are small (committee embeddings of the first list) and
  * are broadcast; the S side — the large list — is scanned with
  * `mapPartitions`, each task encoding its partition's records **once** with
  * the shared base encoder and probing every member's index through its view.
  * This is the broadcast-side k-NN join mirroring the paper's
  * index-then-probe structure (Algorithm 1, lines 10–24).
  */
object SparkKnn {

  private val retrieveSchema = StructType(Array(
    StructField("sid", IntegerType, nullable = false),
    StructField("rid", IntegerType, nullable = false),
    StructField("dist", DoubleType, nullable = false),
    StructField("member", IntegerType, nullable = false)))

  /** Top-`k` R-neighbours of every S record under every committee view.
    * Returns (sid, rid, dist, member); the caller deduplicates and cuts to
    * the candidate size.
    */
  def retrieveMulti(spark: SparkSession, sDf: DataFrame, attrCols: Seq[String],
                    emb: HashEmbedding, views: IndexedSeq[EmbView],
                    indexes: IndexedSeq[NnIndex], k: Int): DataFrame = {
    require(views.length == indexes.length, "view/index count mismatch")
    import org.apache.spark.sql.functions.col
    val bcEmb = spark.sparkContext.broadcast(emb)
    val bcViews = spark.sparkContext.broadcast(views)
    val bcIdx = spark.sparkContext.broadcast(indexes)
    val projected = sDf.select((Seq("id") ++ attrCols).map(col): _*)
    val rdd = projected.rdd.mapPartitions { rows =>
      val e = bcEmb.value
      val vs = bcViews.value
      val idxs = bcIdx.value
      rows.flatMap { row =>
        val id = row.getInt(0)
        val attrs = (1 until row.length).map(i => Option(row.getString(i)).getOrElse(""))
        val base = e.recordVec(attrs) // shared across all members
        vs.indices.iterator.flatMap { m =>
          val q = vs(m)(base)
          idxs(m).search(q, k).iterator.map { case (rid, d) => Row(id, rid, d, m) }
        }
      }
    }
    spark.createDataFrame(rdd, retrieveSchema)
  }

  private val scoreSchema = StructType(Array(
    StructField("rid", IntegerType, nullable = false),
    StructField("sid", IntegerType, nullable = false),
    StructField("prob", DoubleType, nullable = false)))

  /** Matcher probabilities over a candidate-pair DataFrame (rid, sid).
    * Record attribute maps are broadcast (both lists fit comfortably);
    * the scorer runs as a partition-local scan — the "matcher scoring as a
    * UDF over partitioned data" dataflow.
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
