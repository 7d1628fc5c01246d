package repro.exp

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.core.{Dial, DialConfig, RunResult}
import repro.data.ERDataGen

class ExperimentsSpec extends SparkSpec {

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

  test("grid prints the paper tables' header and rows") {
    // lines of Tables 7 and 10 as the per-table runners printed them
    val t7 = Experiments.grid("N", 4,
      Seq(("1", Seq(66.7, 80.0, 100.0, 80.0, 88.9), PaperNumbers.table7((1, "test")))))
    assert(t7 == Seq(
      "N       W-A    A-G    D-A    D-S    A-B   | paper:    W-A    A-G    D-A    D-S    A-B",
      "1      66.7   80.0  100.0   80.0   88.9   |      :   83.2   68.6   98.5   94.4   88.6"))
    val t10 = Experiments.grid("Method", 14,
      Seq(("DIAL (N=10)", Seq(0.0199, 0.0051, 0.0099, 0.031, 0.0149), PaperNumbers.table10(10))),
      width = 8, digits = 2)
    assert(t10 == Seq(
      "Method             W-A     A-G     D-A     D-S     A-B   | paper:     W-A     A-G     D-A     D-S     A-B",
      "DIAL (N=10)       0.02    0.01    0.01    0.03    0.01   |      :    90.8     8.2    15.8   263.1    42.0"))
  }

  test("REPRO_SCALE accepts a positive finite number and defaults to 1") {
    assert(Experiments.parseScale(None) == 1.0)
    assert(Experiments.parseScale(Some("4")) == 4.0)
    assert(Experiments.parseScale(Some("0.25")) == 0.25)
    assert(Experiments.parseScale(Some("1e-3")) == 1e-3)
  }

  test("REPRO_SCALE rejects a non-number, zero, a negative, NaN and infinity, naming the variable and value") {
    Seq("abc", "", "1.0x", "0", "-0.0", "-2", "NaN", "Infinity", "-Infinity").foreach { v =>
      val e = intercept[IllegalArgumentException](Experiments.parseScale(Some(v)))
      assert(e.getMessage.contains("REPRO_SCALE") && e.getMessage.contains(s"'$v'"), e.getMessage)
    }
  }

  test("cfgFor: Abt-Buy takes k = 20 and CAND = 20·|S|, MultiLingual a frozen g, the rest the defaults") {
    val all = ERDataGen.benchmarks(scale = 0.05) :+ ERDataGen.multilingualDefault(scale = 0.05)
    assert(all.map(_.name).toSet == Set("Walmart-Amazon", "Amazon-Google", "DBLP-ACM", "DBLP-Scholar",
                                       "Abt-Buy", "MultiLingual"))
    all.foreach { ds =>
      val cfg = Experiments.cfgFor(ds)
      ds.name match {
        case "Abt-Buy" =>
          assert(cfg == DialConfig(k = 20, candMult = 20.0))
          assert(new Dial(spark, ds, cfg).candSize == 20 * ds.s.size)
        case "MultiLingual" => assert(cfg == DialConfig(trainG = false))
        case _ => assert(cfg == DialConfig(), ds.name)
      }
    }
  }

  test("the run memo tells apart datasets of equal name and sizes") {
    val a = ERDataGen.walmartAmazon(seed = 11, scale = 0.05)
    val b = ERDataGen.walmartAmazon(seed = 12, scale = 0.05)
    assert(a.name == b.name && a.r.size == b.r.size && a.s.size == b.s.size && a.r != b.r)
    val cfg = DialConfig(rounds = 0, seedPos = 8, seedNeg = 8, matcherEpochs = 4, blockerEpochs = 8,
                         embedDim = 16)
    def metrics(r: RunResult) = r.copy(stageTimes = IndexedSeq.empty)
    val ra = Experiments.dialRun(spark, a, cfg)
    val rb = Experiments.dialRun(spark, b, cfg)
    assert(metrics(rb) != metrics(ra))
    assert(metrics(rb) == metrics(new Dial(spark, b, cfg).run()))
    assert(Experiments.dialRun(spark, a, cfg) eq ra)
  }
}
