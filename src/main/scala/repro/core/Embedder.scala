package repro.core

import repro.data.ERDataset
import repro.ml.Vec
import repro.text.HashEmbedding

/** Caches the frozen "pretrained" single-mode embeddings E(x) of both lists.
  *
  * The matcher's simulated Θ-finetune is a diagonal scale g; the adapted
  * embedding E_Θ(x) = g ⊙ E(x) is what the blocker committee consumes
  * (paper §3.2.1: committee members start from the Matcher-trained
  * transformer's single-mode embeddings, with Θ frozen).
  */
final class Embedder(val emb: HashEmbedding, val ds: ERDataset) {
  /** Base (pretrained) embeddings, indexed by record id. */
  val rBase: Array[Array[Double]] = ds.r.map(rec => emb.recordVec(rec.attrs)).toArray
  val sBase: Array[Array[Double]] = ds.s.map(rec => emb.recordVec(rec.attrs)).toArray

  /** Corpus-IDF pair featurizer shared by the matcher paths (DESIGN.md §2:
    * the proxy for pretrained attention knowing which tokens are informative).
    */
  val featurizer: PairFeaturizer =
    new PairFeaturizer(PairFeatures.idfFrom((ds.r ++ ds.s).map(_.tokenSet)))

  def adaptedR(id: Int, g: Array[Double]): Array[Double] = Vec.had(g, rBase(id))
  def adaptedS(id: Int, g: Array[Double]): Array[Double] = Vec.had(g, sBase(id))
}
