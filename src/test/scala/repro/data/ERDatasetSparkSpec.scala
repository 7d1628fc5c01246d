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

  test("dupsDF matches the gold set") {
    val pairs = ds.dupsDF(spark).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(pairs == ds.dups)
  }

  test("duplicate count per S record via SQL matches DuckDB (oracle)") {
    val agg = ds.dupsDF(spark).groupBy("sid").agg(count(lit(1)).as("cnt"))
      .agg(max("cnt").as("maxdups"), count(lit(1)).as("nsids"))
    Oracle.assertEquivalent(agg,
      """SELECT max(cnt) AS maxdups, count(*) AS nsids FROM
        |  (SELECT sid, count(*) AS cnt FROM dups GROUP BY sid)""".stripMargin,
      "dups" -> ds.dupsDF(spark))
  }

  test("gold join against records is total (oracle)") {
    val joined = ds.dupsDF(spark)
      .join(ds.rDF(spark).select(col("id").as("rid")), "rid")
      .join(ds.sDF(spark).select(col("id").as("sid")), "sid")
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(joined,
      """SELECT count(*) AS n FROM dups d
        |JOIN r ON d.rid = r.id JOIN s ON d.sid = s.id""".stripMargin,
      "dups" -> ds.dupsDF(spark),
      "r" -> ds.rDF(spark).select("id"),
      "s" -> ds.sDF(spark).select("id"))
  }
}
