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

  /** Writes the `k` nearest positions by squared L2 distance, ascending,
    * and their distances to `ids` and `dists` from position `at`; returns
    * how many it wrote: min(k, size), or 0 when `k` ≤ 0.
    */
  def searchInto(q: Array[Double], k: Int, ids: Array[Int], dists: Array[Double], at: Int): Int

  /** The `k` nearest positions by squared L2 distance, ascending. */
  def search(q: Array[Double], k: Int): Array[(Int, Double)] = {
    val kk = math.max(0, math.min(k, size))
    val ids = new Array[Int](kk)
    val dists = new Array[Double](kk)
    val n = searchInto(q, k, ids, dists, 0)
    Array.tabulate(n)(i => (ids(i), dists(i)))
  }
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

  /** One member's hits for one chunk of queries: the chunk's query q has
    * its hits, ascending, at `q · perQuery` until `(q + 1) · perQuery` of
    * `ids` and `dists`.
    */
  final class ChunkHits private[NnIndex] (val ids: Array[Int], val dists: Array[Double], val perQuery: Int)

  /** Index-By-Committee probing (paper Algorithm 1, lines 10–24): every
    * query's base embedding is projected through each member's view and
    * searched in that member's index. Returns, per member and then per
    * chunk of [[Chunk]] queries, the top-`k` hits of each query. Members
    * are probed one after another, each by all chunks of queries
    * concurrently (one task projects its chunk, then searches each
    * projection), so every core works over one member's index at a time;
    * the result does not depend on the thread count.
    */
  def probeHits(queries: Array[Array[Double]], views: IndexedSeq[EmbView],
                indexes: IndexedSeq[NnIndex], k: Int): IndexedSeq[IndexedSeq[ChunkHits]] = {
    require(views.length == indexes.length, "view/index count mismatch")
    val chunks = queries.grouped(Chunk).toArray
    views.indices.map { m =>
      val index = indexes(m)
      val perQuery = math.max(0, math.min(k, index.size))
      Par.tabulate(chunks.length) { c =>
        val projected = views(m).project(chunks(c))
        val hits = new ChunkHits(new Array[Int](projected.length * perQuery),
                                 new Array[Double](projected.length * perQuery), perQuery)
        var q = 0
        while (q < projected.length) {
          index.searchInto(projected(q), k, hits.ids, hits.dists, q * perQuery)
          q += 1
        }
        hits
      }
    }
  }

  /** The hits of [[probeHits]] as (position, distance) pairs, per query and
    * then per member.
    */
  def probe(queries: Array[Array[Double]], views: IndexedSeq[EmbView],
            indexes: IndexedSeq[NnIndex], k: Int): IndexedSeq[IndexedSeq[Array[(Int, Double)]]] = {
    val byMember = probeHits(queries, views, indexes, k)
    IndexedSeq.tabulate(queries.length) { q =>
      byMember.map { chunks =>
        val h = chunks(q / Chunk)
        val at = (q % Chunk) * h.perQuery
        Array.tabulate(h.perQuery)(i => (h.ids(at + i), h.dists(at + i)))
      }
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
  }
}

/** Exhaustive exact k-NN over list positions (FAISS `IndexFlatL2`
  * equivalent): a float32 screen, then an exact double re-rank.
  *
  * The index keeps the caller's double rows (not copied) and a float32 copy
  * of them stored column by column, one array per dimension. A search first
  * scores every vector in float32 over the columns, four dimensions per
  * pass, in a loop the JIT vectorises; one scalar pass over the scores then
  * finds the k-th smallest, F₍ₖ₎, and every vector whose float score F is
  * at most F₍ₖ₎ + 2ε. Those vectors alone are re-scored in double with
  * `Vec.distSq`, the serial sum of a row-by-row search, and offered to one
  * [[NnIndex.TopK]] in ascending index order. The hits, their distances and the order of ties are
  * therefore those of offering every vector's `Vec.distSq` in index order.
  * A true top-k vector has F ≤ D + ε ≤ D₍ₖ₎ + ε. The k vectors with
  * F ≤ F₍ₖ₎ have D ≤ F₍ₖ₎ + ε, so D₍ₖ₎ ≤ F₍ₖ₎ + ε and F ≤ F₍ₖ₎ + 2ε: the
  * re-ranked vectors hold every true top-k vector, and the others rank
  * after them.
  *
  * The bound ε bounds |F − D| when every entry of the query and the index
  * has magnitude at most M. Let u = 2⁻²⁴ (float32 unit roundoff) and
  * η = 2⁻¹⁵⁰ (the absolute error of a float32 rounding that underflows).
  * Per dimension, with t = q − x exact:
  *  - each conversion to float32 errs by at most uM + η, and the float
  *    subtraction by u·|q̃ − x̃| ≤ 2uM(1 + u), so the float difference s
  *    errs by e ≤ 4uM + 2u²M + 2η(1 + u);
  *  - |s² − t²| ≤ e(2|t| + e) ≤ e(4M + e), about 16uM², and the float
  *    square adds u·s² + η with s² ≤ (2M + e)², about 4uM²: 20uM² per term;
  *  - a float sum of d non-negative terms, in any order, errs by at most
  *    γ₍d−1₎ = (d − 1)u / (1 − (d − 1)u) times their sum, at most about
  *    4dM²: about 4d(d − 1)uM².
  *
  * So |F − Σt²| ≤ (4d² + 16d)uM² to first order. The double distance D errs
  * from Σt² by the same expression with 2⁻⁵³ for u, under 2⁻²⁹ of it, plus
  * at most d·2⁻¹⁰⁷⁵ from double underflow. With M̂ = max(M, 2⁻⁶⁰), which
  * puts u·M̂² more than 2¹⁰ above every η term, and a 2× margin for the
  * higher-order terms, the double error and the rounding of F₍ₖ₎ + 2ε:
  *
  *   ε = 2 · (4d² + 20d) · 2⁻²⁴ · M̂², about 2·10⁻³ at d = 64 and M = 1.
  *
  * When 8dM² passes `Float.MaxValue` (a float score could overflow), or M
  * is NaN or infinite, ε is infinite and every vector is re-ranked, as it
  * is when k ≥ n or d = 0; NaN distances therefore reach the top k as in a
  * row-by-row search.
  */
final class ExactIndex(rows: Array[Array[Double]]) extends NnIndex {
  private val n = rows.length
  private val dim = if (n == 0) 0 else rows(0).length
  require(rows.forall(_.length == dim), s"indexed vectors differ in length (expected $dim)")
  private val cols: Array[Array[Float]] = Array.tabulate(dim) { i =>
    val col = new Array[Float](n)
    var j = 0
    while (j < n) { col(j) = rows(j)(i).toFloat; j += 1 }
    col
  }
  /** The largest entry magnitude of the indexed vectors; NaN if any is NaN. */
  private val magnitude = rows.foldLeft(0.0)((m, row) => math.max(m, ExactIndex.magnitude(row)))

  override def size: Int = n

  /** Nothing when `k` ≤ 0 or the index is empty; otherwise the query must
    * have the indexed vectors' length.
    */
  override def searchInto(q: Array[Double], k: Int, outIds: Array[Int], outDists: Array[Double], at: Int): Int = {
    if (k <= 0 || n == 0) return 0
    require(q.length == dim, s"query has ${q.length} dimensions, index has $dim")
    val kk = math.min(k, n)
    val eps = ExactIndex.bound(dim, math.max(magnitude, ExactIndex.magnitude(q)))
    val cand = ExactIndex.candidateBuffer(n)
    var nc = 0
    if (kk == n || dim == 0 || eps.isInfinite) {
      while (nc < n) { cand(nc) = nc; nc += 1 } // every vector is re-ranked
    } else nc = candidates(screen(q), kk, eps, cand)
    val top = new NnIndex.TopK(kk)
    var c = 0
    while (c < nc) {
      val j = cand(c)
      top.offer(j, Vec.distSq(q, rows(j)))
      c += 1
    }
    System.arraycopy(top.ids, 0, outIds, at, kk)
    System.arraycopy(top.ds, 0, outDists, at, kk)
    kk
  }

  /** Writes to `cand`, ascending, the position of every vector whose score
    * is within 2ε of the `k`-th smallest score F₍ₖ₎; returns their count.
    * One pass keeps the k smallest scores so far and, as candidates, every
    * vector within 2ε of the k-th of them when it is seen; that k-th only
    * falls, so the candidates hold every vector within 2ε of F₍ₖ₎, and
    * only those are kept.
    */
  private def candidates(scores: Array[Float], k: Int, eps: Double, cand: Array[Int]): Int = {
    val best = Array.fill(k)(Float.PositiveInfinity)
    var cut = Double.PositiveInfinity
    var nc = 0
    var j = 0
    while (j < n) {
      val v = scores(j)
      if (v <= cut) {
        cand(nc) = j; nc += 1
        if (v < best(k - 1)) {
          var i = k - 1
          while (i > 0 && best(i - 1) > v) { best(i) = best(i - 1); i -= 1 }
          best(i) = v
          cut = best(k - 1) + 2 * eps
        }
      }
      j += 1
    }
    var kept = 0
    var c = 0
    while (c < nc) {
      if (scores(cand(c)) <= cut) { cand(kept) = cand(c); kept += 1 }
      c += 1
    }
    kept
  }

  /** The float32 score of every vector against `q` (d ≥ 1), in this
    * thread's score buffer. The first pass writes every score, so nothing
    * of an earlier search is read. (Passing the buffer in as a parameter
    * measured 2–4× slower: the JIT no longer vectorised the passes.)
    */
  private def screen(q: Array[Double]): Array[Float] = {
    val acc = ExactIndex.scoreBuffer(n)
    var i = 0
    if (dim >= 4) {
      val q0 = q(0).toFloat; val q1 = q(1).toFloat; val q2 = q(2).toFloat; val q3 = q(3).toFloat
      val c0 = cols(0); val c1 = cols(1); val c2 = cols(2); val c3 = cols(3)
      var j = 0
      while (j < n) {
        val t0 = q0 - c0(j); val t1 = q1 - c1(j); val t2 = q2 - c2(j); val t3 = q3 - c3(j)
        acc(j) = (t0 * t0 + t1 * t1) + (t2 * t2 + t3 * t3)
        j += 1
      }
      i = 4
    } else {
      val q0 = q(0).toFloat; val c0 = cols(0)
      var j = 0
      while (j < n) { val t = q0 - c0(j); acc(j) = t * t; j += 1 }
      i = 1
    }
    while (i + 4 <= dim) {
      val q0 = q(i).toFloat; val q1 = q(i + 1).toFloat; val q2 = q(i + 2).toFloat; val q3 = q(i + 3).toFloat
      val c0 = cols(i); val c1 = cols(i + 1); val c2 = cols(i + 2); val c3 = cols(i + 3)
      var j = 0
      while (j < n) {
        val t0 = q0 - c0(j); val t1 = q1 - c1(j); val t2 = q2 - c2(j); val t3 = q3 - c3(j)
        acc(j) += (t0 * t0 + t1 * t1) + (t2 * t2 + t3 * t3)
        j += 1
      }
      i += 4
    }
    while (i < dim) {
      val qi = q(i).toFloat; val col = cols(i)
      var j = 0
      while (j < n) { val t = qi - col(j); acc(j) += t * t; j += 1 }
      i += 1
    }
    acc
  }
}

object ExactIndex {
  private val U = math.pow(2, -24)
  private val MinMagnitude = math.pow(2, -60)

  /** The screen's ε (see [[ExactIndex]]) for `d` dimensions and entries of
    * magnitude at most `m`; infinite when a float score could overflow or
    * `m` is not finite.
    */
  private[index] def bound(d: Int, m: Double): Double =
    if (!(8.0 * d * m * m <= Float.MaxValue)) Double.PositiveInfinity
    else {
      val mm = math.max(m, MinMagnitude)
      2.0 * (4.0 * d * d + 20.0 * d) * U * mm * mm
    }

  /** The largest |x| of `v`; NaN if any entry is NaN. */
  private def magnitude(v: Array[Double]): Double = {
    var m = 0.0
    var i = 0
    while (i < v.length) { m = math.max(m, math.abs(v(i))); i += 1 }
    m
  }

  private val scoreBuffers = new ThreadLocal[Array[Float]]
  private val candidateBuffers = new ThreadLocal[Array[Int]]

  /** This thread's score array, at least `n` long; its contents are
    * whatever the thread's last search left.
    */
  private def scoreBuffer(n: Int): Array[Float] = {
    val a = scoreBuffers.get
    if (a != null && a.length >= n) a
    else { val b = new Array[Float](n); scoreBuffers.set(b); b }
  }

  /** This thread's candidate array, at least `n` long. */
  private def candidateBuffer(n: Int): Array[Int] = {
    val a = candidateBuffers.get
    if (a != null && a.length >= n) a
    else { val b = new Array[Int](n); candidateBuffers.set(b); b }
  }
}
