package repro.index

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.core.PlainView
import repro.data.ERDataGen
import repro.ml.Vec
import repro.text.HashEmbedding

class SparkKnnSpec extends SparkSpec {
  private lazy val ds = ERDataGen.walmartAmazon(scale = 0.08)
  private lazy val emb = new HashEmbedding(d = 16, seed = 42)
  private lazy val rVecs = ds.r.map(rec => emb.recordVec(rec.attrs)).toArray
  private lazy val index = new ExactIndex(rVecs)

  /** The single-view scan: plain base embeddings against `index`. */
  private def retrievePlain(sDf: DataFrame, k: Int) =
    SparkKnn.retrieveMulti(spark, sDf, ds.schema, emb, IndexedSeq(new PlainView),
      IndexedSeq(index), k)

  test("retrieve returns k hits per S record") {
    val out = retrievePlain(ds.sDF(spark), k = 3)
    val rows = out.collect()
    assert(rows.length == ds.s.size * 3)
    val perSid = rows.groupBy(_.getInt(0))
    assert(perSid.size == ds.s.size)
    assert(perSid.values.forall(_.length == 3))
  }

  test("retrieve agrees with driver-side search") {
    val out = retrievePlain(ds.sDF(spark), k = 2)
      .collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2)))
      .groupBy(_._1)
    ds.s.take(20).foreach { rec =>
      val expected = index.search(emb.recordVec(rec.attrs), 2).map(_._1).toSeq
      val got = out(rec.id).sortBy(_._3).map(_._2).toSeq
      assert(got == expected, s"sid=${rec.id}")
    }
  }

  test("top-k per probe matches DuckDB window-function semantics (oracle)") {
    // materialise the full distance table once, then let both engines take
    // the top-2 per sid: our index result must equal the SQL row_number cut.
    val k = 2
    val sTake = ds.s.take(40)
    val distRows = for (s <- sTake; rId <- ds.r.indices) yield
      Row(rId, s.id, Vec.distSq(rVecs(rId), emb.recordVec(s.attrs)))
    val distDf = spark.createDataFrame(
      spark.sparkContext.parallelize(distRows, 2),
      StructType(Array(StructField("rid", IntegerType), StructField("sid", IntegerType),
                       StructField("dist", DoubleType))))
    val sDfSmall = ds.sDF(spark).filter(org.apache.spark.sql.functions.col("id") < 40)
    val sparkTop = retrievePlain(sDfSmall, k).select("sid", "rid")
    Oracle.assertEquivalent(
      sparkTop,
      s"""SELECT sid, rid FROM (
         |  SELECT CAST(sid AS INT) AS sid, CAST(rid AS INT) AS rid,
         |         row_number() OVER (PARTITION BY sid
         |                            ORDER BY CAST(dist AS DOUBLE), CAST(rid AS INT)) AS rn
         |  FROM d) WHERE rn <= $k""".stripMargin,
      "d" -> distDf)
  }

  test("retrieveMulti tags hits with the member id") {
    val multi = SparkKnn.retrieveMulti(spark, ds.sDF(spark), ds.schema, emb,
      IndexedSeq(new PlainView, new PlainView), IndexedSeq(index, index), k = 1)
    val members = multi.select("member").distinct().collect().map(_.getInt(0)).toSet
    assert(members == Set(0, 1))
    assert(multi.count() == ds.s.size * 2)
  }

  test("scorePairs applies the broadcast scorer to every pair") {
    val pairs = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(Row(0, 0), Row(1, 2), Row(2, 1)), 1),
      StructType(Array(StructField("rid", IntegerType), StructField("sid", IntegerType))))
    val rMap = ds.r.map(x => x.id -> x.attrs).toMap
    val sMap = ds.s.map(x => x.id -> x.attrs).toMap
    val scorer = new LengthScorer
    val out = SparkKnn.scorePairs(spark, pairs, rMap, sMap, scorer)
      .collect().map(r => ((r.getInt(0), r.getInt(1)), r.getDouble(2))).toMap
    assert(out.size == 3)
    assert(out((1, 2)) == (ds.rById(1).attrs.head.length + ds.sById(2).attrs.head.length).toDouble)
  }
}

/** Top-level helper so Spark closures don't capture the test suite. */
class LengthScorer extends PairScorer {
  def prob(r: Seq[String], s: Seq[String]): Double = (r.head.length + s.head.length).toDouble
}
