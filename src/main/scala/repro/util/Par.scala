package repro.util

import java.util.stream.IntStream

/** Index-parallel work on the JVM's common fork-join pool, with the calling
  * thread taking a share; the pool is sized from the runtime's core count.
  * Used where the items are independent: committee members (paper
  * Eq. 7–8) and their indexes, the chunks of S records probing those
  * indexes, per-record base embeddings and pair-feature profiles, and the
  * pairs of a candidate set being scored.
  */
object Par {

  /** `f(0)`, …, `f(n - 1)` evaluated concurrently; results in index order.
    * `f` must touch only state owned by its own index. A single task runs
    * inline on the caller's thread.
    */
  def tabulate[T](n: Int)(f: Int => T): IndexedSeq[T] = {
    if (n <= 1) return IndexedSeq.tabulate(n)(f)
    val out = new Array[Any](n)
    IntStream.range(0, n).parallel().forEach(i => out(i) = f(i))
    out.toIndexedSeq.asInstanceOf[IndexedSeq[T]]
  }
}
