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

  /** The dataset's [[TokenDictionary]], over R then S, and each record's
    * sorted token ranks, R then S by id; every record is tokenised once,
    * concurrently.
    */
  private[core] val (dictionary, ranks) = {
    val toks = Par.tabulate(ds.r.size + ds.s.size) { i =>
      TokenDictionary.distinctTokens(if (i < ds.r.size) ds.r(i).attrs else ds.s(i - ds.r.size).attrs)
    }
    val dict = new TokenDictionary(toks)
    (dict, Par.tabulate(toks.length)(i => dict.ranks(toks(i))))
  }

  /** Corpus IDF by token rank, log(1 + N/df) over the N records of R and S,
    * df the number of records that hold the token (DESIGN.md §2: the proxy
    * for pretrained attention knowing which tokens are informative).
    */
  private[core] val idf: Array[Double] = {
    val df = new Array[Int](dictionary.tokens.length)
    ranks.foreach(_.foreach(r => df(r) += 1))
    val n = ranks.length
    df.map(c => math.log(1.0 + n.toDouble / c))
  }

  /** The corpus IDF as a two-record pair featurizer, for pairs scored by
    * their attributes alone (`MatcherScorer`).
    */
  lazy val featurizer: PairFeaturizer = new PairFeaturizer(dictionary.tokens.iterator.zip(idf.iterator).toMap)

  /** Pair-feature profiles of R then S, indexed like the base embeddings,
    * assembled concurrently from the dictionary on every call; any two of
    * them pair.
    */
  def profiles(): IndexedSeq[RecordProfile] = Par.tabulate(ranks.length)(i => dictionary.profile(ranks(i), idf))

  def adaptedR(id: Int, g: Array[Double]): Array[Double] = Vec.had(g, rBase(id))
  def adaptedS(id: Int, g: Array[Double]): Array[Double] = Vec.had(g, sBase(id))
}
