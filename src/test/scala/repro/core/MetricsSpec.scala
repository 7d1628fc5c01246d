package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.data.TestPair

class MetricsSpec extends SparkSpec {

  private def pairsDf(pairs: Seq[(Int, Int)]) = spark.createDataFrame(
    spark.sparkContext.parallelize(pairs.map { case (a, b) => Row(a, b) }, 1),
    StructType(Array(StructField("rid", IntegerType), StructField("sid", IntegerType))))

  test("PRF formulas") {
    val prf = PRF(tp = 8, fp = 2, fn = 8)
    assert(prf.p == 80.0)
    assert(prf.r == 50.0)
    assert(math.abs(prf.f1 - 2 * 80.0 * 50.0 / 130.0) < 1e-9)
  }

  test("PRF degenerate cases") {
    assert(PRF(0, 0, 0).p == 0.0)
    assert(PRF(0, 0, 0).r == 0.0)
    assert(PRF(0, 0, 0).f1 == 0.0)
    assert(PRF(5, 0, 0).f1 == 100.0)
  }

  test("allPairs counts tp/fp/fn") {
    val pred = Set((1, 1), (2, 2), (3, 3))
    val gold = Set((1, 1), (4, 4))
    val prf = Metrics.allPairs(pred, gold)
    assert(prf == PRF(1, 2, 1))
  }

  test("candRecall") {
    val gold = Set((1, 1), (2, 2), (3, 3), (4, 4))
    assert(Metrics.candRecall(Seq((1, 1), (2, 2), (9, 9)), gold) == 50.0)
    assert(Metrics.candRecall(Seq.empty, gold) == 0.0)
    assert(Metrics.candRecall(Seq((1, 1)), Set.empty) == 0.0)
  }

  test("testEval only counts labeled pairs") {
    val test = IndexedSeq(TestPair(1, 1, label = true), TestPair(2, 2, label = false),
                          TestPair(3, 3, label = true))
    val predicted = Set((1, 1), (2, 2), (9, 9)) // (9,9) is outside the test set
    val prf = Metrics.testEval(test, predicted)
    assert(prf == PRF(1, 1, 1))
  }

  test("true-positive join matches DuckDB (oracle)") {
    val pred = Seq((1, 1), (2, 2), (3, 3), (5, 7))
    val gold = Seq((1, 1), (3, 3), (8, 8))
    val tpDf = pairsDf(pred).join(pairsDf(gold), Seq("rid", "sid"), "inner")
      .agg(org.apache.spark.sql.functions.count(
        org.apache.spark.sql.functions.lit(1)).as("tp"))
    Oracle.assertEquivalent(tpDf,
      "SELECT count(*) AS tp FROM pred JOIN gold ON pred.rid = gold.rid AND pred.sid = gold.sid",
      "pred" -> pairsDf(pred), "gold" -> pairsDf(gold))
  }

  test("false-negative anti-join matches DuckDB (oracle)") {
    val pred = Seq((1, 1), (2, 2))
    val gold = Seq((1, 1), (3, 3), (4, 4))
    val fnDf = pairsDf(gold).join(pairsDf(pred), Seq("rid", "sid"), "left_anti")
      .agg(org.apache.spark.sql.functions.count(
        org.apache.spark.sql.functions.lit(1)).as("fn"))
    Oracle.assertEquivalent(fnDf,
      """SELECT count(*) AS fn FROM gold g
        |WHERE NOT EXISTS (SELECT 1 FROM pred p WHERE p.rid = g.rid AND p.sid = g.sid)""".stripMargin,
      "pred" -> pairsDf(pred), "gold" -> pairsDf(gold))
  }
}
