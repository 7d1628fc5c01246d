package repro.index

import repro.ml.Vec
import repro.util.Par

/** A view over the shared base embedding E(x): identity (PairedFixed),
  * matcher scale g ⊙ · (PairedAdapt), or a committee member's head (IBC).
  * Views are cheap next to a transformer encoding, which all members share:
  * the structure behind the paper's nearly flat testing time in the
  * committee size (Table 10).
  */
trait EmbView {
  def apply(base: Array[Double]): Array[Double]
}

/** Nearest-neighbour index over d-dimensional vectors — our FAISS substitute:
  * [[ExactIndex]] is FAISS `IndexFlatL2`, exhaustive and exact. Immutable
  * after construction, so concurrent searches need no locking.
  */
trait NnIndex {
  /** Number of indexed vectors. */
  def size: Int

  /** The `k` nearest ids by squared L2 distance, ascending. */
  def search(q: Array[Double], k: Int): Array[(Int, Double)]
}

object NnIndex {

  /** Index-By-Committee probing (paper Algorithm 1, lines 10–24): every
    * query's base embedding is projected through each member's view and
    * searched in that member's index. Returns, per query and then per
    * member, the top-`k` (id, distance) hits, ascending. Queries are probed
    * concurrently; the result does not depend on the thread count.
    */
  def probe(queries: Array[Array[Double]], views: IndexedSeq[EmbView],
            indexes: IndexedSeq[NnIndex], k: Int): IndexedSeq[IndexedSeq[Array[(Int, Double)]]] = {
    require(views.length == indexes.length, "view/index count mismatch")
    Par.tabulate(queries.length) { q =>
      views.indices.map(m => indexes(m).search(views(m)(queries(q)), k))
    }
  }

  /** Bounded ascending top-k accumulator (insertion into a small array —
    * faster than a heap for the k ≤ 20 used throughout the paper).
    */
  private[index] final class TopK(k: Int) {
    val ids = new Array[Int](k)
    val ds  = Array.fill(k)(Double.MaxValue)
    var n = 0

    def offer(id: Int, d: Double): Unit = {
      if (n == k && d >= ds(k - 1)) return
      var i = math.min(n, k - 1)
      while (i > 0 && ds(i - 1) > d) {
        if (i < k) { ds(i) = ds(i - 1); ids(i) = ids(i - 1) }
        i -= 1
      }
      ds(i) = d; ids(i) = id
      if (n < k) n += 1
    }

    def result(): Array[(Int, Double)] = Array.tabulate(n)(i => (ids(i), ds(i)))
  }
}

/** Exhaustive exact k-NN (FAISS `IndexFlatL2` equivalent). */
final class ExactIndex(idsIn: Array[Int], vecsIn: Array[Array[Double]]) extends NnIndex {
  require(idsIn.length == vecsIn.length, "ids/vectors length mismatch")
  private val ids = idsIn
  private val vecs = vecsIn

  override def size: Int = ids.length

  override def search(q: Array[Double], k: Int): Array[(Int, Double)] = {
    val top = new NnIndex.TopK(math.min(k, size))
    var i = 0
    while (i < vecs.length) {
      top.offer(ids(i), Vec.distSq(q, vecs(i)))
      i += 1
    }
    top.result()
  }
}
