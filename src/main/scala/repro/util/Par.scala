package repro.util

import java.util.stream.IntStream

/** Member-parallel work: the committee's members are independent (paper
  * Eq. 7–8), so per-member training and per-member index builds run as
  * separate tasks on the JVM's common fork-join pool, with the calling
  * thread taking a share. The pool is sized from the runtime's core count.
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
