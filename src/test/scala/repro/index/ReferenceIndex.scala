package repro.index

import repro.ml.Vec
import repro.util.Par

/** The exact search and the committee probe as they stood before the index
  * moved to column storage, kept as the exact reference: vectors stored row
  * by row, one `Vec.distSq` per vector, and the probe looping over queries
  * on the outside. `NnIndexSpec` compares the program's results with these
  * bit for bit.
  */
object ReferenceIndex {

  final class RowMajor(ids: Array[Int], vecs: Array[Array[Double]]) extends NnIndex {
    require(ids.length == vecs.length, "ids/vectors length mismatch")

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

    override def searchInto(q: Array[Double], k: Int, outIds: Array[Int], outDists: Array[Double], at: Int): Int = {
      val hits = search(q, k)
      hits.indices.foreach { i => outIds(at + i) = hits(i)._1; outDists(at + i) = hits(i)._2 }
      hits.length
    }
  }

  def probe(queries: Array[Array[Double]], views: IndexedSeq[EmbView],
            indexes: IndexedSeq[NnIndex], k: Int): IndexedSeq[IndexedSeq[Array[(Int, Double)]]] = {
    require(views.length == indexes.length, "view/index count mismatch")
    Par.tabulate(queries.length) { q =>
      views.indices.map(m => indexes(m).search(views(m)(queries(q)), k))
    }
  }
}
