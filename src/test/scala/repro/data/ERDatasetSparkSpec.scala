package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class ERDatasetSparkSpec extends SparkSpec {
  private lazy val ds = ERDataGen.dblpAcm(scale = 0.06)

  test("rDF/sDF carry id, schema columns and text") {
    val r = ds.rDF(spark)
    assert(r.columns.toSeq == Seq("id") ++ ds.schema)
    assert(r.count() == ds.r.size)
    assert(ds.sDF(spark).count() == ds.s.size)
  }

  test("DataFrame rows round-trip the driver records") {
    val byId = ds.rDF(spark).collect().map(r => r.getInt(0) -> r).toMap
    ds.r.take(10).foreach { rec =>
      val row = byId(rec.id)
      ds.schema.indices.foreach(i => assert(row.getString(1 + i) == rec.attrs(i)))
      assert(row.length == 1 + ds.schema.length)
    }
  }

  test("gold join against records is total (oracle)") {
    val dups = spark.createDataFrame(ds.dups.toSeq).toDF("rid", "sid")
    val joined = dups
      .join(ds.rDF(spark).select(col("id").as("rid")), "rid")
      .join(ds.sDF(spark).select(col("id").as("sid")), "sid")
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(joined,
      """SELECT count(*) AS n FROM dups d
        |JOIN r ON d.rid = r.id JOIN s ON d.sid = s.id""".stripMargin,
      "dups" -> dups,
      "r" -> ds.rDF(spark).select("id"),
      "s" -> ds.sDF(spark).select("id"))
  }
}
