package repro.index

import repro.ml.Vec
import repro.util.Par

/** The exact search and the committee probe as they stood before the index
  * moved to column storage, kept as the exact reference: vectors stored row
  * by row, one `Vec.distSq` per vector offered to a [[NnIndex.TopK]] in
  * list order, and the probe looping over queries on the outside.
  * `NnIndexSpec` compares the program's results with these bit for bit.
  */
object ReferenceIndex {

  final class RowMajor(vecs: Array[Array[Double]]) extends NnIndex {

    override def size: Int = vecs.length

    override def searchInto(q: Array[Double], k: Int, outIds: Array[Int], outDists: Array[Double], at: Int): Int = {
      val kk = math.max(0, math.min(k, size))
      if (kk == 0) return 0
      val top = new NnIndex.TopK(kk)
      var i = 0
      while (i < vecs.length) {
        top.offer(i, Vec.distSq(q, vecs(i)))
        i += 1
      }
      System.arraycopy(top.ids, 0, outIds, at, top.n)
      System.arraycopy(top.ds, 0, outDists, at, top.n)
      top.n
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
