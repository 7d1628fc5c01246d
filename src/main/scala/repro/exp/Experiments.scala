package repro.exp

import java.util.IdentityHashMap
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
  * Every AL method runs [[DialConfig]]'s schedule (4 rounds × 192 labels).
  * Env knob: REPRO_SCALE (dataset scale, a positive finite number; default
  * 1.0 of the DESIGN.md §4 sizes).
  */
object Experiments {

  /** REPRO_SCALE, read when a table first needs its datasets. */
  lazy val scale: Double = parseScale(sys.env.get("REPRO_SCALE"))

  /** A REPRO_SCALE value: 1.0 when unset, else a positive finite number. */
  private[exp] def parseScale(value: Option[String]): Double = value.fold(1.0) { v =>
    v.toDoubleOption.filter(x => x > 0 && x < Double.PositiveInfinity).getOrElse(
      throw new IllegalArgumentException(s"REPRO_SCALE must be a positive finite number, got '$v'"))
  }

  lazy val benchmarks: IndexedSeq[ERDataset] = ERDataGen.benchmarks(scale)
  lazy val multilingual: ERDataset = ERDataGen.multilingualDefault(scale = scale)

  /** Paper §4.2: Abt-Buy uses k = 20 and CAND = 20·|S| (its S is tiny). */
  def cfgFor(ds: ERDataset): DialConfig = {
    val base = DialConfig()
    val k = if (ds.name == "Abt-Buy") base.copy(k = 20, candMult = 20.0) else base
    if (ds.name == "MultiLingual") k.copy(trainG = false) else k
  }

  // ------------------------------------------------------------ run cache

  /** Keyed on the dataset instance, then the config, like `Dial`'s memos:
    * two generated datasets of equal name and sizes (e.g. two seeds at one
    * scale) hold different records.
    */
  private val cache = new IdentityHashMap[ERDataset, mutable.HashMap[DialConfig, RunResult]]

  def dialRun(spark: SparkSession, ds: ERDataset, cfg: DialConfig): RunResult = synchronized {
    cache.computeIfAbsent(ds, _ => mutable.HashMap.empty).getOrElseUpdate(cfg, {
      Console.err.println(s"[exp] running ${cfg.blockerMode.name} on ${ds.name} ($cfg)")
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
      row(RfAl.run(spark, ds))
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

  // --------------------------------------------------- shared grid layout

  /** One table grid: a header of `label` and the dataset keys, once for ours
    * and once for the paper's, then one line per row (name, our values in
    * dataset order, the paper's values by dataset key). Cells are `width`
    * wide; ours print with `digits` decimals, the paper's with one.
    */
  private[exp] def grid(label: String, labelWidth: Int,
                        rows: Seq[(String, Seq[Double], Map[String, Double])],
                        width: Int = 7, digits: Int = 1): Seq[String] = {
    def name(x: String) = s"%-${labelWidth}s".format(x)
    val keys = PaperNumbers.dsKeys.map(k => s"%${width}s".format(k)).mkString
    (name(label) + keys + "   | paper:" + keys) +: rows.map { case (row, ours, paper) =>
      name(row) + ours.map(v => s"%$width.${digits}f".format(v)).mkString + "   |      :" +
        PaperNumbers.dsKeys.map(k => s"%$width.1f".format(paper(k))).mkString
    }
  }

  /** A metric of a run: its key in the paper's tables, and its grid title. */
  private[exp] final case class Metric(key: String, title: String, of: RunResult => Double)

  private val CandRecall = Metric("recall", "Recall of CAND", _.candRecall)
  private val TestF1 = Metric("test", "Test Evaluation", _.testPRF.f1)
  private val AllF1 = Metric("all", "All Pairs Evaluation", _.allPRF.f1)

  /** Tables 4–7: one titled [[grid]] per metric, one row per variant (its
    * paper key, printed as the row name, and its config per dataset).
    */
  private[exp] def ablation[K](spark: SparkSession, label: String, labelWidth: Int,
                               metrics: Seq[Metric], paper: Map[(K, String), Map[String, Double]])(
                               variants: (K, ERDataset => DialConfig)*): Seq[String] =
    metrics.flatMap { m =>
      s"-- ${m.title} --" +: grid(label, labelWidth, variants.map { case (k, cfg) =>
        (k.toString, benchmarks.map(ds => m.of(dialRun(spark, ds, cfg(ds)))), paper((k, m.key)))
      })
    }

  /** Table 4: labeled vs random negatives for the committee. */
  def table4(spark: SparkSession): Seq[String] =
    ablation(spark, "Negatives", 10, Seq(CandRecall, TestF1, AllF1), PaperNumbers.table4)(
      ("Labeled", ds => cfgFor(ds).copy(negMode = LabeledNegs)),
      ("Random", ds => cfgFor(ds).copy(negMode = RandomNegs)))

  /** Table 5: blocker training objective. */
  def table5(spark: SparkSession): Seq[String] =
    ablation(spark, "Objective", 15, Seq(TestF1, AllF1), PaperNumbers.table5)(
      ("Classification", ds => cfgFor(ds).copy(objective = Classification)),
      ("Triplet", ds => cfgFor(ds).copy(objective = Triplet)),
      ("Contrastive", ds => cfgFor(ds).copy(objective = Contrastive)))

  /** Table 6: candidate-set size (Small = 3·|DUPS|; Medium/Large per paper). */
  def table6(spark: SparkSession): Seq[String] = {
    def mult(ds: ERDataset, abtBuy: Double, other: Double) =
      cfgFor(ds).copy(candMult = if (ds.name == "Abt-Buy") abtBuy else other)
    ablation(spark, "CAND", 8, Seq(CandRecall.copy(title = "Recall"), AllF1), PaperNumbers.table6)(
      ("Small", ds => cfgFor(ds).copy(candMult = 3.0 * ds.dups.size / ds.s.size)),
      ("Medium", ds => mult(ds, abtBuy = 10.0, other = 3.0)),
      ("Large", ds => mult(ds, abtBuy = 20.0, other = 5.0)))
  }

  /** Table 7: committee size N ∈ {1, 3, 5}. */
  def table7(spark: SparkSession): Seq[String] =
    ablation(spark, "N", 4, Seq(TestF1, AllF1), PaperNumbers.table7)(
      Seq(1, 3, 5).map(n => (n, (ds: ERDataset) => cfgFor(ds).copy(committeeN = n))): _*)

  /** Table 8: example-selection strategies (all-pairs F1). */
  def table8(spark: SparkSession): Seq[String] =
    grid("Method", 13, Seq(RandomSel, GreedySel, Partition2, Partition4, QbcSel, BadgeSel, UncertaintySel).map { st =>
      (st.name, benchmarks.map(ds => dialRun(spark, ds, cfgFor(ds).copy(selector = st)).allPRF.f1),
       PaperNumbers.table8(st.name))
    })

  /** Table 9: time per operation in the final AL round of DIAL. */
  def table9(spark: SparkSession): Seq[String] = {
    val times = benchmarks.map(ds => dialRun(spark, ds, cfgFor(ds)).lastTimes)
    grid("Operation", 22, Seq[(String, StageTimes => Double)](
      "Train Matcher" -> (_.matcherSec),
      "Train Committee" -> (_.committeeSec),
      "Indexing & Retrieval" -> (_.retrieveSec),
      "Selection" -> (_.selectionSec)).map { case (op, get) => (op, times.map(get), PaperNumbers.table9(op)) },
      width = 8, digits = 2)
  }

  /** Table 10: testing time vs committee size, the find-all pass of a run
    * with no labeling round (trained once on the seed set).
    */
  def table10(spark: SparkSession): Seq[String] =
    grid("Method", 14, Seq(1, 3, 10).map { n =>
      (s"DIAL (N=$n)",
       benchmarks.map(ds => dialRun(spark, ds, cfgFor(ds).copy(committeeN = n, rounds = 0)).findAllSec),
       PaperNumbers.table10(n))
    }, width = 8, digits = 2)

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
