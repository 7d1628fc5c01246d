package repro.index

import repro.ml.{KMeans, Vec}

/** Nearest-neighbour index over d-dimensional vectors — our FAISS substitute.
  *
  * Two implementations mirror the FAISS index families the paper's IBC uses:
  * [[ExactIndex]] (≈ `IndexFlatL2`, exhaustive, exact) and [[IvfIndex]]
  * (≈ `IndexIVFFlat`, inverted lists under a k-means coarse quantiser with
  * `nprobe` probing). Both are immutable after construction and serializable
  * so they ride Spark broadcasts into the S-side retrieval scan.
  */
trait NnIndex extends Serializable {
  /** Number of indexed vectors. */
  def size: Int

  /** The `k` nearest ids by squared L2 distance, ascending. */
  def search(q: Array[Double], k: Int): Array[(Int, Double)]
}

object NnIndex {
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

/** Inverted-file index: k-means coarse quantiser, per-centroid posting lists,
  * query probes the `nprobe` nearest centroids (FAISS `IndexIVFFlat`).
  * Approximate: recall < 1 when the true neighbour lives in an unprobed cell.
  */
final class IvfIndex(idsIn: Array[Int], vecsIn: Array[Array[Double]],
                     nlist: Int, val nprobe: Int, seed: Long) extends NnIndex {
  require(idsIn.length == vecsIn.length, "ids/vectors length mismatch")
  private val ids = idsIn
  private val vecs = vecsIn
  private val (centroids, assign) =
    KMeans.fit(vecsIn.toIndexedSeq, math.min(nlist, math.max(1, vecsIn.length)), seed)
  private val lists: Array[Array[Int]] = {
    val buf = Array.fill(centroids.length)(scala.collection.mutable.ArrayBuffer.empty[Int])
    var i = 0
    while (i < assign.length) { buf(assign(i)) += i; i += 1 }
    buf.map(_.toArray)
  }

  override def size: Int = ids.length

  override def search(q: Array[Double], k: Int): Array[(Int, Double)] = {
    val nc = centroids.length
    val probeTop = new NnIndex.TopK(math.min(nprobe, nc))
    var c = 0
    while (c < nc) { probeTop.offer(c, Vec.distSq(q, centroids(c))); c += 1 }
    val top = new NnIndex.TopK(math.min(k, size))
    probeTop.result().foreach { case (cell, _) =>
      val lst = lists(cell)
      var j = 0
      while (j < lst.length) {
        val idx = lst(j)
        top.offer(ids(idx), Vec.distSq(q, vecs(idx)))
        j += 1
      }
    }
    top.result()
  }
}
