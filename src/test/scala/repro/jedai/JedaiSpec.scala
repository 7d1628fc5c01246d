package repro.jedai

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.core.PRF
import repro.data.{ERDataGen, ERDataset, Rec}
import repro.text.Tokenizer

class JedaiSpec extends SparkSpec {
  private lazy val da = ERDataGen.dblpAcm(scale = 0.08)
  private lazy val wa = ERDataGen.walmartAmazon(scale = 0.08)

  test("tokenTable covers all attributes (schema-agnostic)") {
    val toks = TokenBlocking.tokenTable(da.rDF(spark), da.schema).collect()
      .map(r => (r.getInt(0), r.getString(1))).groupBy(_._1)
    da.r.take(5).foreach { rec =>
      val expected = rec.attrs.flatMap(Tokenizer.tokens).distinct.toSet
      assert(toks(rec.id).map(_._2).toSet == expected)
    }
  }

  test("CBS weights equal shared distinct token counts") {
    val pairs = TokenBlocking.sharedTokens(TokenBlocking.tokenTable(da.rDF(spark), da.schema),
                                           TokenBlocking.tokenTable(da.sDF(spark), da.schema))
      .collect().map(r => ((r.getInt(r.fieldIndex("rid")), r.getInt(r.fieldIndex("sid"))),
                           r.getLong(r.fieldIndex("cnt")))).toMap
    da.dups.take(10).foreach { case (rid, sid) =>
      val shared = da.rById(rid).tokenSet.intersect(da.sById(sid).tokenSet).size
      if (shared > 0) assert(pairs((rid, sid)) == shared.toLong, s"($rid,$sid)")
    }
  }

  test("CBS aggregation matches DuckDB (oracle)") {
    // driver-tokenised tables for DuckDB; Spark runs the program's token path
    val sub = da.copy(r = da.r.take(25), s = da.s.take(25))
    def tokRows(recs: Seq[Rec]) = recs.flatMap(r =>
      r.tokenSet.toSeq.sorted.map(t => Row(r.id, t)))
    val schema = StructType(Array(StructField("id", IntegerType), StructField("token", StringType)))
    val rt = spark.createDataFrame(spark.sparkContext.parallelize(tokRows(sub.r), 1), schema)
    val st = spark.createDataFrame(spark.sparkContext.parallelize(tokRows(sub.s), 1), schema)
    val sparkCbs = TokenBlocking.sharedTokens(TokenBlocking.tokenTable(sub.rDF(spark), sub.schema),
                                              TokenBlocking.tokenTable(sub.sDF(spark), sub.schema))
    Oracle.assertEquivalent(sparkCbs,
      """SELECT CAST(rt.id AS INT) AS rid, CAST(st.id AS INT) AS sid, count(*) AS cnt
        |FROM rt JOIN st ON rt.token = st.token GROUP BY rt.id, st.id""".stripMargin,
      "rt" -> rt, "st" -> st)
  }

  test("weighted edge pruning keeps exactly the above-mean edges") {
    val rows = Seq(Row(1, 1, 1L), Row(1, 2, 5L), Row(2, 1, 2L), Row(2, 2, 8L))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 1),
      StructType(Array(StructField("rid", IntegerType), StructField("sid", IntegerType),
                       StructField("cnt", LongType))))
    val kept = MetaBlocking.weightedEdgePruning(df)
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(kept == Set((1, 2), (2, 2))) // mean = 4, keep cnt > 4
  }

  test("jaccard computation matches driver brute force") {
    val rt = TokenBlocking.tokenTable(da.rDF(spark), da.schema)
    val st = TokenBlocking.tokenTable(da.sDF(spark), da.schema)
    val withJac = TokenBlocking.withJaccard(TokenBlocking.sharedTokens(rt, st), rt, st)
      .collect().map(r => ((r.getInt(r.fieldIndex("rid")), r.getInt(r.fieldIndex("sid"))),
                           r.getDouble(r.fieldIndex("jac")))).toMap
    da.dups.take(10).foreach { case (rid, sid) =>
      val expected = Tokenizer.jaccard(da.rById(rid).tokenSet, da.sById(sid).tokenSet)
      if (expected > 0)
        assert(math.abs(withJac((rid, sid)) - expected) < 1e-9, s"($rid,$sid)")
    }
  }

  test("the reported PRF matches the predictions when no threshold finds a duplicate") {
    // the only gold pair (0, 0) shares no token; (0, 1) is predicted at every threshold
    val ds = ERDataset("tiny", IndexedSeq("title"),
      r = IndexedSeq(Rec(0, IndexedSeq("zorvex kx2741 headset"))),
      s = IndexedSeq(Rec(0, IndexedSeq("plumbo dishwasher")), Rec(1, IndexedSeq("zorvex kx2741 headset"))),
      dups = Set((0, 0)), testPairs = IndexedSeq.empty)
    assert(JedaiPipelines.schemaBased(spark, ds).allPRF == PRF(0, 1, 1))
  }

  test("schema-based pipeline finds most DBLP-ACM duplicates") {
    val r = JedaiPipelines.schemaBased(spark, da)
    assert(r.allPRF.f1 > 70.0, s"schema-based F1 ${r.allPRF.f1}")
    assert(r.findAllSec > 0.0)
  }

  test("schema-agnostic pipeline is competitive on citations") {
    val r = JedaiPipelines.schemaAgnostic(spark, da)
    assert(r.allPRF.f1 > 70.0, s"schema-agnostic F1 ${r.allPRF.f1}")
  }

  test("pipelines run on products (lower F1 expected than citations)") {
    val rp = JedaiPipelines.schemaBased(spark, wa)
    val rc = JedaiPipelines.schemaBased(spark, da)
    assert(rp.allPRF.f1 < rc.allPRF.f1, s"products ${rp.allPRF.f1} vs citations ${rc.allPRF.f1}")
  }

  test("keyAttr picks the textual key") {
    assert(JedaiPipelines.keyAttr(da) == "title")
    assert(JedaiPipelines.keyAttr(ERDataGen.abtBuy(scale = 0.05)) == "description")
  }
}
