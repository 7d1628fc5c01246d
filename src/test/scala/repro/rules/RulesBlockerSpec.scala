package repro.rules

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.core.Metrics
import repro.data.{ERDataGen, Rec}
import repro.jedai.TokenBlocking
import repro.text.Tokenizer

class RulesBlockerSpec extends SparkSpec {
  private lazy val wa = ERDataGen.walmartAmazon(scale = 0.08)
  private lazy val da = ERDataGen.dblpAcm(scale = 0.08)
  private lazy val ab = ERDataGen.abtBuy(scale = 0.1)

  test("tokenTable emits distinct normalised tokens per record") {
    val df = wa.rDF(spark)
    val toks = TokenBlocking.tokenTable(df, Seq("title")).collect()
      .map(r => (r.getInt(0), r.getString(1)))
    val byId = toks.groupBy(_._1)
    wa.r.take(10).foreach { rec =>
      val got = byId(rec.id).map(_._2)
      assert(got.length == got.distinct.length, s"rid=${rec.id} repeats a token")
      assert(got.toSet == Tokenizer.tokens(rec.attrs(0)).toSet, s"rid=${rec.id}")
    }
  }

  /** Title tokens of the records of `wa`, and those in more than 5% of all
    * records: the stopwords `overlapPairs` leaves out.
    */
  private def titleTokens(rec: Rec): Set[String] = Tokenizer.tokens(rec.attrs(0)).toSet
  private lazy val stopwords: Set[String] = {
    val df = (wa.r ++ wa.s).flatMap(titleTokens).groupBy(identity)
    df.collect { case (t, occ) if occ.size > 0.05 * (wa.r.size + wa.s.size) => t }.toSet
  }

  test("overlapPairs matches brute force on the small dataset") {
    val got = RulesBlocker.overlapPairs(wa.rDF(spark), wa.sDF(spark), "title")
      .collect().map(r => ((r.getInt(0), r.getInt(1)), r.getLong(2))).toMap
    assert(stopwords.nonEmpty)
    // brute force over a subset of S
    var found = 0
    wa.s.take(30).foreach { s =>
      val sToks = titleTokens(s) -- stopwords
      wa.r.foreach { r =>
        val c = (titleTokens(r) -- stopwords).intersect(sToks).size
        if (c >= 3) { found += 1; assert(got.get((r.id, s.id)).contains(c.toLong), s"(${r.id},${s.id})") }
        else assert(!got.contains((r.id, s.id)), s"(${r.id},${s.id}) should be absent")
      }
    }
    assert(found > 0, "no pair of the subset shares 3 rare tokens")
  }

  test("pair overlap-count aggregation matches DuckDB (oracle)") {
    // driver-tokenised tables for DuckDB; Spark runs the program's overlapPairs
    def tokRows(recs: Seq[Rec]) = recs.flatMap(r => titleTokens(r).toSeq.sorted.map(t => Row(r.id, t)))
    val schema = StructType(Array(StructField("id", IntegerType), StructField("token", StringType)))
    val rt = spark.createDataFrame(spark.sparkContext.parallelize(tokRows(wa.r), 1), schema)
    val st = spark.createDataFrame(spark.sparkContext.parallelize(tokRows(wa.s), 1), schema)
    val sparkPairs = RulesBlocker.overlapPairs(wa.rDF(spark), wa.sDF(spark), "title")
    assert(sparkPairs.count() > 0)
    Oracle.assertEquivalent(sparkPairs,
      s"""WITH keep AS (
         |  SELECT token FROM (SELECT token FROM rt UNION ALL SELECT token FROM st)
         |  GROUP BY token HAVING count(*) <= ${0.05 * (wa.r.size + wa.s.size)})
         |SELECT CAST(rt.id AS INT) AS rid, CAST(st.id AS INT) AS sid, count(*) AS cnt
         |FROM rt JOIN keep ON rt.token = keep.token JOIN st ON st.token = keep.token
         |GROUP BY rt.id, st.id HAVING count(*) >= 3""".stripMargin,
      "rt" -> rt, "st" -> st)
  }

  test("digitTokenPairs only links digit-bearing tokens") {
    val pairs = RulesBlocker.digitTokenPairs(wa.rDF(spark), wa.sDF(spark), "title")
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    pairs.take(20).foreach { case (rid, sid) =>
      val rDigit = Tokenizer.tokens(wa.rById(rid).attrs(0)).filter(_.exists(_.isDigit)).toSet
      val sDigit = Tokenizer.tokens(wa.sById(sid).attrs(0)).filter(_.exists(_.isDigit)).toSet
      assert(rDigit.intersect(sDigit).nonEmpty, s"($rid,$sid) share no digit token")
    }
  }

  test("equalityPairs links equal non-empty brands only") {
    val pairs = RulesBlocker.equalityPairs(wa.rDF(spark), wa.sDF(spark), "brand")
      .collect().map(r => (r.getInt(0), r.getInt(1)))
    pairs.take(30).foreach { case (rid, sid) =>
      assert(wa.rById(rid).attrs(1) == wa.sById(sid).attrs(1))
      assert(wa.rById(rid).attrs(1).nonEmpty)
    }
  }

  test("rules achieve high recall on products") {
    val cand = RulesBlocker.candidates(spark, wa)
    val recall = Metrics.candRecall(cand, wa.dups)
    assert(recall > 55.0, s"rules recall too low: $recall")
  }

  test("rules miss some corrupted duplicates at a larger scale") {
    val big = ERDataGen.walmartAmazon(scale = 0.3)
    val recall = Metrics.candRecall(RulesBlocker.candidates(spark, big), big.dups)
    assert(recall < 100.0, "rules should miss some corrupted duplicates")
    assert(recall > 55.0, s"recall $recall")
  }

  test("rules achieve high recall on citations") {
    val cand = RulesBlocker.candidates(spark, da)
    val recall = Metrics.candRecall(cand, da.dups)
    assert(recall > 90.0, s"citation rules recall: $recall")
  }

  test("textual dataset uses the description rule") {
    val cand = RulesBlocker.candidates(spark, ab)
    assert(cand.nonEmpty)
    val recall = Metrics.candRecall(cand, ab.dups)
    assert(recall > 55.0, s"abt-buy rules recall: $recall")
  }

  test("rules candidate set is far smaller than the cartesian product") {
    val cand = RulesBlocker.candidates(spark, wa)
    assert(cand.size < wa.r.size.toLong * wa.s.size / 2)
  }

  test("no rules exist for the multilingual dataset") {
    val ml = ERDataGen.multilingual(30, 10, seed = 1)
    intercept[IllegalArgumentException](RulesBlocker.candidates(spark, ml))
  }
}
