package org.apache.spark

/** Reaches Spark's listener bus, which is package-private: the benchmark
  * drains it before reading its own listener's counters, so every task event
  * of the jobs already finished has been delivered.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
