package repro.jedai

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.text.Tokenizer

/** Token Blocking (Papadakis et al.): every distinct token of every attribute
  * value is a blocking key; records sharing a token co-occur in a block.
  * The shared-token count of a pair is the CBS (common-blocks) weight
  * consumed by meta-blocking.
  *
  * This is the one tokenize → join → count dataflow of the system: the JedAI
  * workflows and the hand-crafted rules ([[repro.rules.RulesBlocker]]) both
  * build on it.
  */
object TokenBlocking {

  private val tokenizeUdf = udf((values: Seq[String]) =>
    values.flatMap(v => Tokenizer.tokens(Option(v).getOrElse(""))).distinct)

  /** (id, token) over the given attributes, distinct per record. */
  def tokenTable(df: DataFrame, attrs: Seq[String]): DataFrame =
    df.select(col("id"), explode(tokenizeUdf(array(attrs.map(col): _*))).as("token"))

  /** Shared-token count of every pair with at least one shared token:
    * (rid, sid, cnt), from the (id, token) tables of R and S.
    */
  def sharedTokens(rt: DataFrame, st: DataFrame): DataFrame =
    rt.withColumnRenamed("id", "rid")
      .join(st.withColumnRenamed("id", "sid"), "token")
      .groupBy("rid", "sid")
      .agg(count(lit(1)).as("cnt"))

  /** Jaccard similarity of the pairs' token sets: (rid, sid, jac). `pairs`
    * carries (rid, sid, cnt) from [[sharedTokens]] over the same tables.
    */
  def withJaccard(pairs: DataFrame, rt: DataFrame, st: DataFrame): DataFrame = {
    val rc = rt.groupBy(col("id").as("rid")).agg(count(lit(1)).as("rn"))
    val sc = st.groupBy(col("id").as("sid")).agg(count(lit(1)).as("sn"))
    pairs.join(rc, "rid").join(sc, "sid")
      .withColumn("jac", col("cnt") / (col("rn") + col("sn") - col("cnt")))
      .select("rid", "sid", "jac")
  }
}
