package dialbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.BenchListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call into a layer, nested in the `parent` span ("" at top). */
final case class Span(name: String, parent: String, startNs: Long, endNs: Long, sparkTasks: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spark runtime counters, fed by the listener bus. */
final class SparkCounters extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val taskRunMs = new AtomicLong

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach(m => taskRunMs.addAndGet(m.executorRunTime))
  }
}

/** Process-wide CPU and GC-pause readings. */
object Jvm {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def cpuNs: Long = os.getProcessCpuTime

  /** Time the JIT compilers have spent so far. */
  def jitMs: Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** Collector time of the stop-the-world collectors (G1's concurrent
    * cycle bean reports background work, not pauses).
    */
  def gcPauseMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala
    .filterNot(_.getName.contains("Concurrent")).map(_.getCollectionTime).filter(_ >= 0).sum

  /** Heap in use after full collections, in MB. */
  def retainedHeapMb(): Double = {
    (0 until 3).foreach { _ => System.gc(); Thread.sleep(50) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** In-memory span recorder for the traced replay. Spans nest through
  * `parent`; the Spark task count of a span is read after the listener bus
  * has delivered the events of the span's jobs, outside the timed interval.
  */
final class Tracer(spark: SparkSession) {
  val counters = new SparkCounters
  spark.sparkContext.addSparkListener(counters)

  val spans = mutable.ArrayBuffer.empty[Span]
  private val stack = mutable.Stack.empty[String]

  def drain(): Unit = BenchListenerBus.drain(spark.sparkContext)

  def span[A](name: String)(body: => A): A = {
    drain()
    val tasks0 = counters.tasks.get
    val parent = stack.headOption.getOrElse("")
    stack.push(name)
    val t0 = System.nanoTime()
    val out = try body finally stack.pop()
    val t1 = System.nanoTime()
    drain()
    spans += Span(name, parent, t0, t1, counters.tasks.get - tasks0)
    out
  }

  def busy(name: String): Double = spans.filter(_.name == name).map(_.seconds).sum
  def tasks(name: String): Long = spans.filter(_.name == name).map(_.sparkTasks).sum

  /** Wall time of `parent` spans that none of their direct children cover. */
  def selfTime(parent: String): Double =
    busy(parent) - spans.filter(_.parent == parent).map(_.seconds).sum
}
