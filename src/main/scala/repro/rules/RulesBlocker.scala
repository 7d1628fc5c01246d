package repro.rules

import java.util.IdentityHashMap
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.ERDataset
import repro.jedai.TokenBlocking

/** Hand-crafted blocking rules — the `Rules` baseline of the paper.
  *
  * The five public benchmarks ship pre-blocked with human-designed rules; we
  * recreate that role with domain rules over our synthetic schemas:
  *
  *  - structured products: a shared model-number-like token (contains a
  *    digit), OR equal non-empty brand with ≥ 3 shared rare title tokens;
  *  - textual products (Abt-Buy): ≥ 3 shared rare description tokens;
  *  - citations: ≥ 3 shared rare title tokens.
  *
  * Implemented on the token-blocking dataflow of
  * [[repro.jedai.TokenBlocking]]: explode tokens, join R and S token tables,
  * aggregate overlap counts. There are no rules for the multilingual dataset
  * (as in the paper — that is its point).
  */
object RulesBlocker {

  /** Shared rare tokens a pair needs in [[overlapPairs]]. */
  private val MinOverlap = 3
  /** Tokens in more than this fraction of all records are stopwords. */
  private val MaxDfFrac = 0.05

  /** Pairs sharing at least 3 distinct rare tokens of `attr`, with the
    * shared count: (rid, sid, cnt). Tokens appearing in more than 5% of all
    * records are treated as stopwords and excluded from blocking (standard
    * for long textual attributes, where boilerplate tokens would block
    * everything with everything).
    */
  def overlapPairs(rDf: DataFrame, sDf: DataFrame, attr: String): DataFrame = {
    val rt = TokenBlocking.tokenTable(rDf, Seq(attr))
    val st = TokenBlocking.tokenTable(sDf, Seq(attr))
    val total = rDf.count() + sDf.count()
    val df = rt.union(st).groupBy("token").agg(count(lit(1)).as("df"))
    val keep = df.filter(col("df") <= lit(MaxDfFrac * total)).select("token")
    TokenBlocking.sharedTokens(rt.join(keep, "token"), st.join(keep, "token"))
      .filter(col("cnt") >= MinOverlap)
  }

  /** Pairs sharing a digit-bearing token (model numbers, years …). */
  def digitTokenPairs(rDf: DataFrame, sDf: DataFrame, attr: String): DataFrame = {
    val digit = (df: DataFrame) =>
      TokenBlocking.tokenTable(df, Seq(attr)).filter(col("token").rlike("[0-9]"))
    TokenBlocking.sharedTokens(digit(rDf), digit(sDf)).select("rid", "sid")
  }

  /** Pairs with equal non-empty values of `attr` (e.g. brand). */
  def equalityPairs(rDf: DataFrame, sDf: DataFrame, attr: String): DataFrame = {
    val r = rDf.select(col("id").as("rid"), col(attr).as("v")).filter(length(col("v")) > 0)
    val s = sDf.select(col("id").as("sid"), col(attr).as("v")).filter(length(col("v")) > 0)
    r.join(s, "v").select("rid", "sid").distinct()
  }

  /** Candidate sets by dataset instance, keyed like `Dial`'s embedder memo. */
  private val memo = new IdentityHashMap[ERDataset, IndexedSeq[(Int, Int)]]

  /** The rule candidate pairs (rid, sid), collected from Spark once per
    * dataset instance and shared by the Rules baseline and the Random Forest.
    */
  def candidates(spark: SparkSession, ds: ERDataset): IndexedSeq[(Int, Int)] =
    synchronized(memo.computeIfAbsent(ds, _ => rulePairs(spark, ds)))

  private def rulePairs(spark: SparkSession, ds: ERDataset): IndexedSeq[(Int, Int)] = {
    val rDf = ds.rDF(spark)
    val sDf = ds.sDF(spark)
    val pairs = ds.schema match {
      case sch if sch.contains("brand") => // structured products
        val ov = overlapPairs(rDf, sDf, "title")
        val byModel = digitTokenPairs(rDf, sDf, "title")
        val byBrand = equalityPairs(rDf, sDf, "brand")
          .join(ov.select("rid", "sid"), Seq("rid", "sid"), "inner")
        byModel.union(byBrand).distinct()
      case sch if sch.contains("description") => // textual products
        overlapPairs(rDf, sDf, "description").select("rid", "sid")
      case sch if sch.contains("authors") => // citations
        overlapPairs(rDf, sDf, "title").select("rid", "sid")
      case other =>
        throw new IllegalArgumentException(
          s"no hand-crafted rules for schema $other (dataset ${ds.name})")
    }
    pairs.collect().map(r => (r.getInt(0), r.getInt(1))).toIndexedSeq
  }
}
