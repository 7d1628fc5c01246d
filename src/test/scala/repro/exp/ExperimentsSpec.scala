package repro.exp

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

class ExperimentsSpec extends AnyFunSuite {

  test("every paper table is registered once, by id") {
    assert(Experiments.tables.map(_._1) == (1 to 10))
  }

  test("main rejects unknown table ids before any Spark work") {
    val before = SparkSession.getDefaultSession
    Seq(Array("0"), Array("11"), Array("2", "x"), Array.empty[String]).foreach { args =>
      val e = intercept[IllegalArgumentException](Experiments.main(args))
      assert(e.getMessage.contains("1, 2, 3, 4, 5, 6, 7, 8, 9, 10"), e.getMessage)
    }
    assert(SparkSession.getDefaultSession == before)
    before.foreach(s => assert(!s.sparkContext.isStopped))
  }
}
