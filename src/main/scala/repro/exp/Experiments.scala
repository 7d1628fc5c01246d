package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{ERDataGen, ERDataset}
import repro.forest.RfAl
import repro.jedai.JedaiPipelines
import scala.collection.mutable

/** The paper's table runners, registered once in [[tables]] and run either
  * by `bench/` (sbt "bench/test") or by [[main]] (spark-submit). Every runner
  * returns printable rows pairing the paper's number with ours; AL runs are
  * memoized so rows shared across tables (e.g. Table 2's DIAL = Table 4's
  * "Random" = Table 5's "Contrastive") are computed once per JVM.
  *
  * Env knobs: REPRO_SCALE (dataset scale, default 1.0 of the DESIGN.md §4
  * sizes), REPRO_ROUNDS (AL labeling rounds, default 4; paper 10),
  * REPRO_BUDGET (labels per round, default 192; paper 128 — a larger
  * per-round budget compensates the reduced round count so the total label
  * volume stays comparable to the paper's 1344).
  */
object Experiments {

  val scale: Double = sys.env.getOrElse("REPRO_SCALE", "1.0").toDouble
  val rounds: Int = sys.env.getOrElse("REPRO_ROUNDS", "4").toInt
  val budget: Int = sys.env.getOrElse("REPRO_BUDGET", "192").toInt

  lazy val benchmarks: IndexedSeq[ERDataset] = ERDataGen.benchmarks(scale)
  lazy val multilingual: ERDataset = ERDataGen.multilingualDefault(scale = scale)

  /** Paper §4.2: Abt-Buy uses k = 20 and CAND = 20·|S| (its S is tiny). */
  def cfgFor(ds: ERDataset): DialConfig = {
    val base = DialConfig(rounds = rounds, budget = budget)
    val k = if (ds.name == "Abt-Buy") base.copy(k = 20, candMult = 20.0) else base
    if (ds.name == "MultiLingual") k.copy(trainG = false) else k
  }

  // ------------------------------------------------------------ run cache

  private val cache = mutable.HashMap.empty[String, RunResult]

  def dialRun(spark: SparkSession, ds: ERDataset, cfg: DialConfig): RunResult = synchronized {
    val key = s"${ds.name}/${ds.r.size}x${ds.s.size}/$cfg"
    cache.getOrElseUpdate(key, {
      Console.err.println(s"[exp] running ${cfg.blockerMode.name} on ${ds.name} ($key)")
      new Dial(spark, ds, cfg).run()
    })
  }

  private def fmt(x: Double): String = f"$x%6.1f"
  private def fmtT(x: Double): String = f"$x%7.2f"

  // -------------------------------------------------------------- tables

  /** Table 1: dataset statistics (ours vs paper). */
  def table1(spark: SparkSession): Seq[String] = {
    val all = benchmarks :+ multilingual
    val header = f"${"Dataset"}%-16s ${"|R|"}%7s ${"|S|"}%7s ${"DUPS"}%7s ${"ratio"}%9s ${"|Dtest|"}%8s   paper(|R|,|S|,DUPS,|Dtest|)"
    header +: all.map { ds =>
      val ratio = ds.dups.size.toDouble / (ds.r.size.toDouble * ds.s.size)
      val p = PaperNumbers.table1(PaperNumbers.key(ds.name))
      f"${ds.name}%-16s ${ds.r.size}%7d ${ds.s.size}%7d ${ds.dups.size}%7d $ratio%9.1e ${ds.testPairs.size}%8d   (${p._1}, ${p._2}, ${p._3}, ${p._4})"
    }
  }

  /** Table 2: end-of-AL all-pairs P/R/F1 + runtime for all eight methods. */
  def table2(spark: SparkSession): Seq[String] = {
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Dataset"}%-16s ${"Method"}%-22s ${"P"}%6s ${"R"}%6s ${"F1"}%6s ${"RT(s)"}%8s | paper  P      R      F1     RT"
    benchmarks.foreach { ds =>
      val key = PaperNumbers.key(ds.name)
      def row(r: RunResult): Unit = {
        val p = PaperNumbers.table2(r.method)(key)
        rows += f"${ds.name}%-16s ${r.method}%-22s ${fmt(r.allPRF.p)} ${fmt(r.allPRF.r)} ${fmt(r.allPRF.f1)} ${fmtT(r.findAllSec)} |       ${fmt(p._1)} ${fmt(p._2)} ${fmt(p._3)} ${fmtT(p._4)}"
      }
      row(RfAl.run(spark, ds, rounds, budget))
      row(JedaiPipelines.schemaBased(spark, ds))
      row(JedaiPipelines.schemaAgnostic(spark, ds))
      IndexedSeq(SentenceBertMode, PairedFixedMode, PairedAdaptMode, RulesMode, IbcMode).foreach { mode =>
        row(dialRun(spark, ds, cfgFor(ds).copy(blockerMode = mode)))
      }
    }
    rows.toSeq
  }

  /** Table 3: multilingual all-pairs P/R/F1. */
  def table3(spark: SparkSession): Seq[String] = {
    val ds = multilingual
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Method"}%-14s ${"P"}%6s ${"R"}%6s ${"F1"}%6s | paper  P      R      F1"
    IndexedSeq(PairedFixedMode, PairedAdaptMode, IbcMode).foreach { mode =>
      // PairedAdapt by definition fine-tunes the TPLM; DIAL/PairedFixed keep
      // it frozen on the multilingual set (§4.5 found freezing better).
      val cfg0 = cfgFor(ds).copy(blockerMode = mode)
      val cfg = if (mode == PairedAdaptMode) cfg0.copy(trainG = true) else cfg0
      val r = dialRun(spark, ds, cfg)
      val p = PaperNumbers.table3(r.method)
      rows += f"${r.method}%-14s ${fmt(r.allPRF.p)} ${fmt(r.allPRF.r)} ${fmt(r.allPRF.f1)} |       ${fmt(p._1)} ${fmt(p._2)} ${fmt(p._3)}"
    }
    rows.toSeq
  }

  /** Table 4: labeled vs random negatives for the committee. */
  def table4(spark: SparkSession): Seq[String] = {
    val variants = IndexedSeq("Labeled" -> LabeledNegs, "Random" -> RandomNegs)
    val rows = mutable.ArrayBuffer.empty[String]
    IndexedSeq(("recall", (r: RunResult) => r.candRecall, "Recall of CAND"),
               ("test",   (r: RunResult) => r.testPRF.f1, "Test Evaluation"),
               ("all",    (r: RunResult) => r.allPRF.f1,  "All Pairs Evaluation")).foreach {
      case (metricKey, metric, title) =>
        rows += s"-- $title --"
        rows += f"${"Negatives"}%-10s" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString +
                "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString
        variants.foreach { case (vname, mode) =>
          val vals = benchmarks.map { ds =>
            metric(dialRun(spark, ds, cfgFor(ds).copy(negMode = mode)))
          }
          val paper = PaperNumbers.table4((vname, metricKey))
          rows += f"$vname%-10s" + vals.map(v => f"$v%7.1f").mkString +
                  "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%7.1f").mkString
        }
    }
    rows.toSeq
  }

  /** Table 5: blocker training objective. */
  def table5(spark: SparkSession): Seq[String] = {
    val variants = IndexedSeq("Classification" -> Classification,
                              "Triplet" -> Triplet, "Contrastive" -> Contrastive)
    val rows = mutable.ArrayBuffer.empty[String]
    IndexedSeq(("test", (r: RunResult) => r.testPRF.f1, "Test Evaluation"),
               ("all",  (r: RunResult) => r.allPRF.f1,  "All Pairs Evaluation")).foreach {
      case (metricKey, metric, title) =>
        rows += s"-- $title --"
        rows += f"${"Objective"}%-15s" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString +
                "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString
        variants.foreach { case (vname, obj) =>
          val vals = benchmarks.map { ds =>
            metric(dialRun(spark, ds, cfgFor(ds).copy(objective = obj)))
          }
          val paper = PaperNumbers.table5((vname, metricKey))
          rows += f"$vname%-15s" + vals.map(v => f"$v%7.1f").mkString +
                  "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%7.1f").mkString
        }
    }
    rows.toSeq
  }

  /** Table 6: candidate-set size (Small = 3·|DUPS|; Medium/Large per paper). */
  def table6(spark: SparkSession): Seq[String] = {
    def cfgSize(ds: ERDataset, size: String): DialConfig = {
      val base = cfgFor(ds)
      size match {
        case "Small"  => base.copy(candSizeOverride = Some(3 * ds.dups.size))
        case "Medium" => if (ds.name == "Abt-Buy") base.copy(candMult = 10.0, candSizeOverride = None)
                         else base.copy(candMult = 3.0, candSizeOverride = None)
        case "Large"  => if (ds.name == "Abt-Buy") base.copy(candMult = 20.0, candSizeOverride = None)
                         else base.copy(candMult = 5.0, candSizeOverride = None)
      }
    }
    val rows = mutable.ArrayBuffer.empty[String]
    IndexedSeq(("recall", (r: RunResult) => r.candRecall, "Recall"),
               ("all",    (r: RunResult) => r.allPRF.f1,  "All Pairs Evaluation")).foreach {
      case (metricKey, metric, title) =>
        rows += s"-- $title --"
        rows += f"${"CAND"}%-8s" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString +
                "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString
        IndexedSeq("Small", "Medium", "Large").foreach { size =>
          val vals = benchmarks.map(ds => metric(dialRun(spark, ds, cfgSize(ds, size))))
          val paper = PaperNumbers.table6((size, metricKey))
          rows += f"$size%-8s" + vals.map(v => f"$v%7.1f").mkString +
                  "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%7.1f").mkString
        }
    }
    rows.toSeq
  }

  /** Table 7: committee size N ∈ {1, 3, 5}. */
  def table7(spark: SparkSession): Seq[String] = {
    val rows = mutable.ArrayBuffer.empty[String]
    IndexedSeq(("test", (r: RunResult) => r.testPRF.f1, "Test Evaluation"),
               ("all",  (r: RunResult) => r.allPRF.f1,  "All Pairs Evaluation")).foreach {
      case (metricKey, metric, title) =>
        rows += s"-- $title --"
        rows += f"${"N"}%-4s" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString +
                "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString
        IndexedSeq(1, 3, 5).foreach { n =>
          val vals = benchmarks.map(ds => metric(dialRun(spark, ds, cfgFor(ds).copy(committeeN = n))))
          val paper = PaperNumbers.table7((n, metricKey))
          rows += f"$n%-4d" + vals.map(v => f"$v%7.1f").mkString +
                  "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%7.1f").mkString
        }
    }
    rows.toSeq
  }

  /** Table 8: example-selection strategies (all-pairs F1). */
  def table8(spark: SparkSession): Seq[String] = {
    val strategies = IndexedSeq[Strategy](RandomSel, GreedySel, Partition2, Partition4,
                                          QbcSel, BadgeSel, UncertaintySel)
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Method"}%-13s" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString +
            "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString
    strategies.foreach { st =>
      val vals = benchmarks.map(ds => dialRun(spark, ds, cfgFor(ds).copy(selector = st)).allPRF.f1)
      val paper = PaperNumbers.table8(st.name)
      rows += f"${st.name}%-13s" + vals.map(v => f"$v%7.1f").mkString +
              "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%7.1f").mkString
    }
    rows.toSeq
  }

  /** Table 9: time per operation in the final AL round of DIAL. */
  def table9(spark: SparkSession): Seq[String] = {
    val runs = benchmarks.map(ds => ds -> dialRun(spark, ds, cfgFor(ds)))
    val ops = IndexedSeq[(String, OpTimes => Double)](
      "Train Matcher" -> (_.matcherSec),
      "Train Committee" -> (_.committeeSec),
      "Indexing & Retrieval" -> (_.retrieveSec),
      "Selection" -> (_.selectSec))
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Operation"}%-22s" + PaperNumbers.dsKeys.map(k => f"$k%8s").mkString +
            "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%8s").mkString
    ops.foreach { case (name, get) =>
      val vals = runs.map { case (_, r) => get(r.lastTimes) }
      val paper = PaperNumbers.table9(name)
      rows += f"$name%-22s" + vals.map(v => f"$v%8.2f").mkString +
              "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%8.1f").mkString
    }
    rows.toSeq
  }

  /** Table 10: testing time (find-all-duplicates pass) vs committee size. */
  def table10(spark: SparkSession): Seq[String] = {
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Method"}%-14s" + PaperNumbers.dsKeys.map(k => f"$k%8s").mkString +
            "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%8s").mkString
    IndexedSeq(1, 3, 10).foreach { n =>
      val vals = benchmarks.map { ds =>
        new Dial(spark, ds, cfgFor(ds).copy(committeeN = n)).timedFindAll()
      }
      val paper = PaperNumbers.table10(n)
      rows += s"DIAL (N=$n)".padTo(14, ' ') + vals.map(v => f"$v%8.2f").mkString +
              "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%8.1f").mkString
    }
    rows.toSeq
  }

  /** Every table runner, by paper table id. */
  val tables: IndexedSeq[(Int, SparkSession => Seq[String])] = IndexedSeq(
    1 -> table1 _, 2 -> table2 _, 3 -> table3 _, 4 -> table4 _, 5 -> table5 _,
    6 -> table6 _, 7 -> table7 _, 8 -> table8 _, 9 -> table9 _, 10 -> table10 _)

  def printTable(title: String, rows: Seq[String]): Unit = {
    println(s"\n==== $title ====")
    rows.foreach(println)
    println()
  }

  /** spark-submit entrypoint: prints the tables whose ids are given, in order,
    * e.g. `spark-submit --class repro.exp.Experiments <jar> 2 9`. Every id is
    * checked before Spark starts.
    */
  def main(args: Array[String]): Unit = {
    val byId = tables.toMap
    def invalid(got: String) = new IllegalArgumentException(
      s"expected table ids, each one of ${tables.map(_._1).mkString(", ")}; got $got")
    if (args.isEmpty) throw invalid("none")
    val selected = args.toSeq.map(a => a.toIntOption.filter(byId.contains).getOrElse(throw invalid(s"'$a'")))
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("dial-tables")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try selected.foreach(id => printTable(s"Table $id", byId(id)(spark)))
    finally spark.stop()
  }
}
