package repro

import scala.collection.mutable

package object core {

  /** The corpus IDF as a map over records' token sets, the reference the
    * IDF of [[Embedder]]'s token dictionary must equal bit for bit. It is
    * an extension of [[PairFeatures]], so specs call it as
    * `PairFeatures.idfFrom`.
    */
  implicit final class IdfReference(private val features: PairFeatures.type) extends AnyVal {

    /** IDF weights log(1 + N/df) from a corpus of records' token sets. */
    def idfFrom(tokenSets: Iterable[Set[String]]): Map[String, Double] = {
      val df = mutable.HashMap.empty[String, Int]
      var n = 0
      tokenSets.foreach { ts => n += 1; ts.foreach(t => df(t) = df.getOrElse(t, 0) + 1) }
      df.iterator.map { case (t, c) => t -> math.log(1.0 + n.toDouble / c) }.toMap
    }
  }
}
