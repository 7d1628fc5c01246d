package repro.core

import repro.data.ERDataset
import repro.ml.Vec
import repro.text.HashEmbedding
import repro.util.Par

/** Caches the frozen "pretrained" single-mode embeddings E(x) of both lists.
  *
  * The matcher's simulated Θ-finetune is a diagonal scale g; the adapted
  * embedding E_Θ(x) = g ⊙ E(x) is what the blocker committee consumes
  * (paper §3.2.1: committee members start from the Matcher-trained
  * transformer's single-mode embeddings, with Θ frozen).
  */
final class Embedder(val emb: HashEmbedding, val ds: ERDataset) {
  /** Base (pretrained) embeddings, indexed by record id, computed
    * concurrently: a token's vector is a pure function of the token, so two
    * threads that both miss `emb`'s token cache store equal vectors.
    */
  val rBase: Array[Array[Double]] = Par.tabulate(ds.r.size)(i => emb.recordVec(ds.r(i).attrs)).toArray
  val sBase: Array[Array[Double]] = Par.tabulate(ds.s.size)(i => emb.recordVec(ds.s(i).attrs)).toArray

  /** Corpus-IDF pair featurizer shared by the matcher paths (DESIGN.md §2:
    * the proxy for pretrained attention knowing which tokens are informative).
    */
  val featurizer: PairFeaturizer =
    new PairFeaturizer(PairFeatures.idfFrom((ds.r ++ ds.s).map(_.tokenSet)))

  def adaptedR(id: Int, g: Array[Double]): Array[Double] = Vec.had(g, rBase(id))
  def adaptedS(id: Int, g: Array[Double]): Array[Double] = Vec.had(g, sBase(id))
}
