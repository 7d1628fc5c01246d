package repro.index

import repro.util.Par

/** A view over the shared base embedding E(x): identity (PairedFixed),
  * matcher scale g ⊙ · (PairedAdapt), or a committee member's head (IBC).
  * Views are cheap next to a transformer encoding, which all members share:
  * the structure behind the paper's nearly flat testing time in the
  * committee size (Table 10).
  */
trait EmbView {
  def apply(base: Array[Double]): Array[Double]

  /** The view of each of `bases`, in order, equal to `apply` on each; a
    * view may compute the batch in one pass.
    */
  def project(bases: Array[Array[Double]]): Array[Array[Double]] = bases.map(apply)
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

  /** Records per [[EmbView.project]] call: a member's retained inputs for
    * one chunk (at most 64 × 128 doubles) stay in the core's cache while
    * every row of U passes over them.
    */
  private[repro] val Chunk = 128

  /** `view` of every vector of `bases`, in order, projected one chunk at a
    * time.
    */
  def project(view: EmbView, bases: Array[Array[Double]]): Array[Array[Double]] =
    bases.grouped(Chunk).flatMap(view.project).toArray

  /** Index-By-Committee probing (paper Algorithm 1, lines 10–24): every
    * query's base embedding is projected through each member's view and
    * searched in that member's index. Returns, per query and then per
    * member, the top-`k` (id, distance) hits, ascending. Members are probed
    * one after another, each by all chunks of queries concurrently (one
    * task projects its chunk, then searches each projection), so every
    * core works over one member's index at a time; the result does not
    * depend on the thread count.
    */
  def probe(queries: Array[Array[Double]], views: IndexedSeq[EmbView],
            indexes: IndexedSeq[NnIndex], k: Int): IndexedSeq[IndexedSeq[Array[(Int, Double)]]] = {
    require(views.length == indexes.length, "view/index count mismatch")
    val chunks = queries.grouped(Chunk).toArray
    val byMember = views.indices.map { m =>
      Par.tabulate(chunks.length)(c => views(m).project(chunks(c)).map(indexes(m).search(_, k)))
    }
    IndexedSeq.tabulate(queries.length)(q => byMember.map(_(q / Chunk)(q % Chunk)))
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

/** Exhaustive exact k-NN (FAISS `IndexFlatL2` equivalent).
  *
  * The vectors are stored column by column, one array of length n per
  * dimension. A search keeps one accumulator per indexed vector and adds
  * (q_i − x_i)² for every vector at once, four dimensions per pass in
  * ascending order: `acc = (((acc + t0²) + t1²) + t2²) + t3²`, the first
  * pass starting from `0.0 + t0²`, and a dimension count that is not a
  * multiple of four ending with one-dimension passes. Each distance is
  * therefore the same serial sum, in the same order, as
  * `Vec.distSq(q, x)`, bit for bit. The inner loop reads and writes the same
  * position of its arrays, a form the JIT vectorises. The accumulators are
  * one array per thread, reused by every search that thread runs. Vectors
  * that cannot enter the top k are not offered to it.
  */
final class ExactIndex(idsIn: Array[Int], vecsIn: Array[Array[Double]]) extends NnIndex {
  require(idsIn.length == vecsIn.length, "ids/vectors length mismatch")
  private val ids = idsIn
  private val n = ids.length
  private val dim = if (n == 0) 0 else vecsIn(0).length
  require(vecsIn.forall(_.length == dim), s"indexed vectors differ in length (expected $dim)")
  private val cols = Array.tabulate(dim)(i => Array.tabulate(n)(j => vecsIn(j)(i)))

  override def size: Int = n

  /** Empty when `k` ≤ 0 or the index is empty; otherwise the query must
    * have the indexed vectors' length.
    */
  override def search(q: Array[Double], k: Int): Array[(Int, Double)] = {
    if (k <= 0 || n == 0) return Array.empty
    require(q.length == dim, s"query has ${q.length} dimensions, index has $dim")
    val acc = ExactIndex.accumulator(n)
    var i = 0
    if (dim >= 4) {
      val q0 = q(0); val q1 = q(1); val q2 = q(2); val q3 = q(3)
      val c0 = cols(0); val c1 = cols(1); val c2 = cols(2); val c3 = cols(3)
      var j = 0
      while (j < n) {
        val t0 = q0 - c0(j); val t1 = q1 - c1(j); val t2 = q2 - c2(j); val t3 = q3 - c3(j)
        acc(j) = (((0.0 + t0 * t0) + t1 * t1) + t2 * t2) + t3 * t3
        j += 1
      }
      i = 4
    } else if (dim > 0) {
      val q0 = q(0); val c0 = cols(0)
      var j = 0
      while (j < n) { val t = q0 - c0(j); acc(j) = 0.0 + t * t; j += 1 }
      i = 1
    } else java.util.Arrays.fill(acc, 0, n, 0.0)
    while (i + 4 <= dim) {
      val q0 = q(i); val q1 = q(i + 1); val q2 = q(i + 2); val q3 = q(i + 3)
      val c0 = cols(i); val c1 = cols(i + 1); val c2 = cols(i + 2); val c3 = cols(i + 3)
      var j = 0
      while (j < n) {
        val t0 = q0 - c0(j); val t1 = q1 - c1(j); val t2 = q2 - c2(j); val t3 = q3 - c3(j)
        acc(j) = (((acc(j) + t0 * t0) + t1 * t1) + t2 * t2) + t3 * t3
        j += 1
      }
      i += 4
    }
    while (i < dim) {
      val qi = q(i); val col = cols(i)
      var j = 0
      while (j < n) { val t = qi - col(j); acc(j) += t * t; j += 1 }
      i += 1
    }
    val kk = math.min(k, n)
    val top = new NnIndex.TopK(kk)
    var j = 0
    while (j < n) {
      val d = acc(j)
      // offer returns at once on exactly this condition; NaN goes through
      if (!(top.n == kk && d >= top.ds(kk - 1))) top.offer(ids(j), d)
      j += 1
    }
    top.result()
  }
}

object ExactIndex {
  private val buffers = new ThreadLocal[Array[Double]]

  /** This thread's accumulator array, at least `n` long; its contents are
    * whatever the thread's last search left.
    */
  private def accumulator(n: Int): Array[Double] = {
    val a = buffers.get
    if (a != null && a.length >= n) a
    else { val b = new Array[Double](n); buffers.set(b); b }
  }
}
