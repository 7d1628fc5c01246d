package dialbench

import org.apache.spark.sql.SparkSession
import repro.core.{Dial, DialConfig, Embedder, RunResult}
import repro.data.ERDataset
import repro.text.HashEmbedding
import scala.collection.mutable
import scala.util.control.NonFatal

/** The DIAL benchmark: one workload, one seed, one process.
  *
  * Untraced (`--trace 0`): times `Dial.run()` in a closed loop with the JVM
  * and Spark warm, checks every result, and prints the end-to-end metrics.
  * Traced (`--trace 1`): runs the untraced reference once, then replays it
  * layer by layer (see [[Replay]]) and prints the per-layer metrics.
  * The last stdout line is the result object; the line before it records
  * the workload's generated sizes, the run times and the kernel sample
  * counts.
  */
object BenchMain {

  /** Embedder constructions per run; `setup_s` is their median. */
  private val setupReps = 7

  /** Dataset scale of the warm-up run that precedes every timed run. */
  private val warmScale = 0.25

  final case class Opts(workload: String, seed: Option[Long], seconds: Double, trace: Boolean)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    Opts(
      workload = m.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      seed = m.get("seed").map(_.toLong),
      seconds = m.getOrElse("seconds", "45").toDouble,
      trace = m.getOrElse("trace", "0") == "1")
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val w = Workloads.byName(opts.workload)
    val spark = SparkSession.builder()
      .master("local[*]")
      .appName(s"dialbench-${w.name}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", ".bench_build/spark-local")
      .config("spark.sql.warehouse.dir", ".bench_build/spark-warehouse")
      .getOrCreate()
    try {
      val result = new BenchMain(spark, w, opts.seed.getOrElse(w.defaultSeed), opts).run()
      println(result.info)
      println(result.json)
    } finally spark.stop()
  }
}

/** The metrics of one benchmark process and the record printed beside them. */
final case class BenchResult(correct: Boolean, attempted: Int, failed: Int,
                             metrics: Seq[(String, Double, String)], info: String) {
  def json: String = Json.obj(Seq(
    "correct" -> correct.toString,
    "attempted" -> attempted.toString,
    "failed" -> failed.toString,
    "metrics" -> Json.obj(metrics.map { case (name, v, unit) =>
      name -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
    })))
}

final class BenchMain(spark: SparkSession, w: Workload, seed: Long, opts: BenchMain.Opts) {
  private val cfg = w.cfg
  private val ds: ERDataset = w.gen(seed, 1.0)
  private val candSize = (cfg.candMult * ds.s.size).toInt

  private var attempted = 0
  private val failedRuns = mutable.SortedSet.empty[Int]
  private val failures = mutable.ArrayBuffer.empty[String]
  private val runSeconds = mutable.ArrayBuffer.empty[Double]
  private val heapMb = mutable.ArrayBuffer.empty[Double]
  private var reference: Option[RunResult] = None

  private def log(msg: String): Unit = Console.err.println(s"[dialbench] $msg")

  private def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val out = body
    (out, (System.nanoTime() - t0) / 1e9)
  }

  /** The program's per-dataset state, built uncached (what
    * `Dial.embedderFor` memoises).
    */
  private def buildEmbedder(): Embedder =
    new Embedder(new HashEmbedding(cfg.embedDim, 42L, ds.germanToEnglish), ds)

  /** One checked `Dial.run()` of `runCfg` on `data`; a throw or a failed
    * check is recorded and the caller proceeds.
    */
  private def attempt(data: ERDataset, timed: Boolean, runCfg: DialConfig): Option[RunResult] = {
    attempted += 1
    try {
      val jit0 = Jvm.jitMs; val gc0 = Jvm.gcPauseMs
      val (r, sec) = seconds(new Dial(spark, data, runCfg).run())
      log(f"run $attempted ${if (timed) "timed" else "warm-up"} ${sec}%.3f s " +
        s"(JIT ${Jvm.jitMs - jit0} ms, GC pauses ${Jvm.gcPauseMs - gc0} ms)")
      val problems = Checks.run(r, data, runCfg) ++ (if (timed) determinism(r) else Nil)
      if (problems.nonEmpty) {
        problems.foreach(fail)
        None
      } else {
        if (timed) { runSeconds += sec; heapMb += Jvm.retainedHeapMb() }
        Some(r)
      }
    } catch {
      case NonFatal(e) =>
        fail(s"${e.getClass.getName}: ${e.getMessage}")
        None
    }
  }

  /** Records a failed check of the current attempt. */
  private def fail(problem: String): Unit = {
    failedRuns += attempted
    failures += s"run $attempted: $problem"
    log(s"FAILED run $attempted: $problem")
  }

  /** Every timed run at one seed must reproduce the first exactly. */
  private def determinism(r: RunResult): Seq[String] = reference match {
    case None => reference = Some(r); Nil
    case Some(ref) if Checks.fingerprint(ref) == Checks.fingerprint(r) => Nil
    case Some(ref) =>
      Seq(s"result differs from the first run at this seed: ${Checks.fingerprint(r)} vs ${Checks.fingerprint(ref)}")
  }

  /** JIT and Spark warm-up: the same workload on a small dataset with few
    * epochs, which runs every code path of a timed run in a fraction of its
    * time. Compilation still goes on during the first timed runs (each run
    * logs its JIT time), one reason `run_s` is a median over several runs.
    */
  private def warmUp(): Unit = attempt(w.gen(seed, BenchMain.warmScale), timed = false,
    cfg.copy(matcherEpochs = 4, blockerEpochs = 15))

  def run(): BenchResult = {
    log(s"workload ${w.name} seed $seed |R|=${ds.r.size} |S|=${ds.s.size} |DUPS|=${ds.dups.size}")
    val setup = (0 until BenchMain.setupReps).map(_ => seconds(buildEmbedder())._2)
    warmUp()
    if (opts.trace) traced(setup) else untraced(setup)
  }

  private def sizes: Seq[(String, String)] = Seq(
    "R" -> ds.r.size, "S" -> ds.s.size, "DUPS" -> ds.dups.size, "test" -> ds.testPairs.size,
    "candSize" -> candSize, "k" -> cfg.k, "N" -> cfg.committeeN, "rounds" -> cfg.rounds,
    "budget" -> cfg.budget).map { case (k, v) => k -> v.toString }

  private def info(extra: Seq[(String, String)]): String = Json.obj(Seq(
    "workload" -> Json.str(w.name), "seed" -> seed.toString, "trace" -> opts.trace.toString,
    "sizes" -> Json.obj(sizes),
    "run_wall_s" -> Json.arr(runSeconds.toSeq.map(Json.num)),
    "failures" -> Json.arr(failures.toSeq.map(Json.str))) ++ extra)

  /** Final-pass quality of the first full-size run at this seed. */
  private def quality: String = Json.obj(reference.toSeq.flatMap { r =>
    Seq("cand_recall" -> Json.num(r.candRecall), "all_pairs_f1" -> Json.num(r.allPRF.f1),
        "test_f1" -> Json.num(r.testPRF.f1))
  })

  private def untraced(setup: IndexedSeq[Double]): BenchResult = {
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    // Closed loop of whole runs inside the --seconds window, at least one.
    var last = 0.0
    do {
      val s0 = elapsed
      attempt(ds, timed = true, cfg)
      last = elapsed - s0
    } while (elapsed + last <= opts.seconds)
    val ok = failedRuns.isEmpty && runSeconds.nonEmpty
    val metrics = Seq(
      ("run_s", if (runSeconds.isEmpty) 0.0 else Stats.median(runSeconds.toIndexedSeq), "s"),
      ("setup_s", Stats.median(setup), "s"),
      ("cand_recall", reference.map(_.candRecall).getOrElse(0.0), "%"),
      ("retained_heap_mb", if (heapMb.isEmpty) 0.0 else Stats.median(heapMb.toIndexedSeq), "MB"),
      ("success_pct", 100.0 * (attempted - failedRuns.size) / attempted, "%"),
    )
    BenchResult(ok, attempted, failedRuns.size, metrics, info(Seq(
      "setup_wall_s" -> Json.arr(setup.map(Json.num)), "quality" -> quality)))
  }

  private def traced(setup: IndexedSeq[Double]): BenchResult = {
    attempt(ds, timed = true, cfg)
    val tr = new Tracer(spark)
    tr.drain() // reference-run events still queued reach the new listener
    val cpu0 = Jvm.cpuNs; val gc0 = Jvm.gcPauseMs
    val jobs0 = tr.counters.jobs.get; val tasks0 = tr.counters.tasks.get; val taskMs0 = tr.counters.taskRunMs.get
    attempted += 1
    val (out, wall) = seconds(new Replay(spark, ds, cfg, tr).run())
    tr.drain()
    val sparkJobs = tr.counters.jobs.get - jobs0
    val sparkTasks = tr.counters.tasks.get - tasks0
    val sparkTaskS = (tr.counters.taskRunMs.get - taskMs0) / 1e3
    val cpuS = (Jvm.cpuNs - cpu0) / 1e9
    val gcS = (Jvm.gcPauseMs - gc0) / 1e3
    val cores = Runtime.getRuntime.availableProcessors

    // Fidelity: the replay must reproduce the untraced run exactly.
    val fidelity = reference match {
      case None => Seq("no untraced reference run succeeded")
      case Some(ref) =>
        val mismatch = ref.roundStats != out.stats || ref.nLabeled != out.nLabeled
        if (mismatch) Seq(s"replay drifted from Dial.run(): replay ${out.stats.mkString(", ")} " +
          s"|T|=${out.nLabeled} vs untraced ${ref.roundStats.mkString(", ")} |T|=${ref.nLabeled}")
        else Nil
    }
    (fidelity ++ out.problems).foreach(p => fail(s"replay: $p"))

    // A second untraced run after the replay: the JIT is still warming up,
    // so the mean of the runs before and after brackets the replay's state.
    attempt(ds, timed = true, cfg)
    val runS = if (runSeconds.isEmpty) Double.NaN else runSeconds.sum / runSeconds.size

    val embedder = Dial.embedderFor(ds, cfg.embedDim)
    val search = Kernels.indexSearch(out, embedder, cfg.k)
    val features = Kernels.pairFeatures(out, embedder)
    val step = Kernels.committeeStep(out, embedder, cfg.embedDim, cfg.maskP)
    val distinctHits = Probes.distinctHits(spark, ds, embedder, out, cfg.k)
    val hits = ds.s.size.toLong * out.finalViews.length * math.min(cfg.k, ds.r.size)

    val recallByRound = out.stats.map(_.candRecall)
    val metrics = Seq(
      ("embedder.busy_s", Stats.median(setup), "s"),
      ("embedder.records", (ds.r.size + ds.s.size).toDouble, "count"),
      ("seed.busy_s", tr.busy("seed"), "s"),
      ("matcher.busy_s", tr.busy("matcher"), "s"),
      ("matcher.example_epochs", out.matcherExampleEpochs.toDouble, "count"),
      ("committee.busy_s", tr.busy("committee"), "s"),
      ("committee.member_steps", out.committeeMemberSteps.toDouble, "count"),
      ("committee.step_us", step.medianUs, "us"),
      ("index.build_s", tr.busy("index"), "s"),
      ("index.vectors", out.indexVectors.toDouble, "count"),
      ("index.search_us", search.medianUs, "us"),
      ("retrieval.busy_s", tr.busy("retrieval"), "s"),
      ("retrieval.probes", out.retrievalProbes.toDouble, "count"),
      ("retrieval.cand", out.candTotal.toDouble, "count"),
      ("retrieval.distinct_frac", distinctHits.toDouble / hits, "ratio"),
      ("retrieval.cand_recall_r1", recallByRound.head, "%"),
      ("retrieval.cand_recall_final", recallByRound.last, "%"),
      ("retrieval.spark_tasks", tr.tasks("retrieval").toDouble, "count"),
      ("scoring.busy_s", tr.busy("scoring"), "s"),
      ("scoring.pairs", out.candTotal.toDouble, "count"),
      ("scoring.spark_tasks", tr.tasks("scoring").toDouble, "count"),
      ("pair_features.us_per_pair", features.medianUs, "us"),
      ("pair_features.recompute_ratio",
        (out.candTotal + out.driverScalars).toDouble / out.distinctFeaturised, "ratio"),
      ("selection.busy_s", tr.busy("selection"), "s"),
      ("selection.selected", out.selected.toDouble, "count"),
      ("selection.pos_yield", if (out.selected == 0) 0.0 else out.selectedPositives.toDouble / out.selected, "ratio"),
      ("metrics.busy_s", tr.busy("metrics"), "s"),
      ("metrics.all_pairs_f1", out.stats.last.allF1, "%"),
      ("metrics.test_f1", out.stats.last.testF1, "%"),
      ("round.wall_s", tr.busy("round"), "s"),
      ("round.unaccounted_s", tr.selfTime("round"), "s"),
      ("spark.jobs", sparkJobs.toDouble, "count"),
      ("spark.tasks", sparkTasks.toDouble, "count"),
      ("spark.task_busy_s", sparkTaskS, "s"),
      ("process.cpu_s", cpuS, "s"),
      ("process.cpu_util", cpuS / (wall * cores), "ratio"),
      ("gc.pause_s", gcS, "s"),
      ("trace.overhead_frac", (wall - runS) / runS, "ratio"), // vs. the untraced runs around it
    )
    val samples = Json.obj(Seq(
      "index.search_us" -> search.samples.toString,
      "pair_features.us_per_pair" -> features.samples.toString,
      "committee.step_us" -> step.samples.toString))
    val extra = Seq(
      "quality" -> quality,
      "replay_s" -> Json.num(wall),
      "cand_recall_by_round" -> Json.arr(recallByRound.map(Json.num)),
      "kernel_samples" -> samples)
    BenchResult(failedRuns.isEmpty, attempted, failedRuns.size, metrics, info(extra))
  }
}
