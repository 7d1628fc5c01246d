package repro.text

import repro.ml.Vec
import repro.util.Rnd

/** Simulated transformer-based pretrained language model (TPLM), single mode.
  *
  * The paper's blocker and baselines consume the TPLM only through the
  * single-mode record embedding E(x) = mean of token embeddings (Eq. 3).
  * We reproduce that interface with a deterministic "pretrained" encoder:
  *
  *  - a token's embedding is a blend of a whole-token feature-hash vector and
  *    the mean of its character-trigram hash vectors. Shared tokens co-locate
  *    records; trigrams make the encoding robust to typos/abbreviations —
  *    the property the paper attributes to TPLMs on "dirty" data;
  *  - for the multilingual experiment, the encoder carries the EN↔pseudo-DE
  *    lexicon (standing in for mBERT's pretraining-acquired cross-lingual
  *    alignment): a German token embeds as its English source with a fixed
  *    signed permutation applied to the upper `1 - AlignFrac` fraction of
  *    dimensions plus token-specific noise. Translations are thus *imperfectly*
  *    co-located — a learnable linear map (the committee member, Eq. 7) can
  *    recover alignment by reweighting/rotating the scrambled subspace, which
  *    is the mechanism behind Table 3.
  *
  * Instances are immutable. The program embeds on the driver; instances stay
  * serializable (the per-token cache is transient) for the benchmark
  * replay's Spark scoring scan (`SparkKnn.scorePairs`).
  */
final class HashEmbedding(
    val d: Int = 64,
    val seed: Long = 42L,
    val germanToEnglish: Map[String, String] = Map.empty,
) extends Serializable {
  import HashEmbedding._

  @transient private lazy val cache =
    new java.util.concurrent.ConcurrentHashMap[String, Array[Double]]()

  private val alignDim = math.max(0, math.min(d, (d * AlignFrac).toInt))

  // Fixed signed permutation of the unaligned dimensions [alignDim, d).
  private val (permIdx, permSign) = {
    val g = new Rnd.Gen(Rnd.combine(seed, 0x7e57L))
    val span = d - alignDim
    val p = g.permutation(math.max(span, 0))
    val s = Array.fill(math.max(span, 0))(if (g.nextBoolean(0.5)) 1.0 else -1.0)
    (p, s)
  }

  private def hashVec(key: String, salt: Long): Array[Double] = {
    val g = new Rnd.Gen(Rnd.combine(Rnd.hash64(key), Rnd.combine(seed, salt)))
    Array.fill(d)(g.nextGaussian() / math.sqrt(d.toDouble))
  }

  /** "Pretrained" embedding of one surface token (English or tag/number). */
  private def monolingualTokenVec(token: String): Array[Double] = {
    val whole = hashVec(token, 1L)
    val grams = Tokenizer.trigrams(token)
    val gv = Vec.zeros(d)
    grams.foreach(gm => Vec.axpyI(gv, 1.0 / grams.length, hashVec(gm, 2L)))
    // trigram-heavy blend: the subword robustness that lets embeddings of
    // typo'd tokens stay near their clean forms (the TPLM property §2.2)
    val out = Vec.zeros(d)
    Vec.axpyI(out, 0.45, whole)
    Vec.axpyI(out, 0.55, gv)
    out
  }

  /** Token embedding, handling the cross-lingual prior for known German tokens. */
  def tokenVec(token: String): Array[Double] = {
    val cached = cache.get(token)
    if (cached != null) return cached
    val v = germanToEnglish.get(token) match {
      case Some(en) =>
        val base = monolingualTokenVec(en)
        val out = base.clone()
        // scramble the unaligned subspace with the fixed signed permutation
        var i = 0
        while (i < d - alignDim) {
          out(alignDim + i) = permSign(i) * base(alignDim + permIdx(i))
          i += 1
        }
        // token-specific pretraining noise
        val g = new Rnd.Gen(Rnd.combine(Rnd.hash64(token), Rnd.combine(seed, 3L)))
        var j = 0
        while (j < d) { out(j) += CrossNoise * g.nextGaussian() / math.sqrt(d.toDouble); j += 1 }
        out
      case None => monolingualTokenVec(token)
    }
    cache.put(token, v)
    v
  }

  /** Record embedding: mean of token embeddings over all attribute values
    * (paper Eq. 3), L2-normalised so distances are scale-comparable across
    * records of different lengths (the usual practice before k-NN search;
    * it also keeps the contrastive objective from cheating by inflating the
    * global embedding scale instead of re-shaping the geometry).
    * Empty records embed at the origin.
    */
  def recordVec(values: Seq[String]): Array[Double] = {
    val toks = Tokenizer.recordTokens(values)
    if (toks.isEmpty) Vec.zeros(d)
    else {
      val out = Vec.zeros(d)
      toks.foreach(t => Vec.axpyI(out, 1.0 / toks.length, tokenVec(t)))
      val n = Vec.l2(out)
      if (n > 1e-12) Vec.scaleI(out, 1.0 / n)
      out
    }
  }
}

object HashEmbedding {
  /** Fraction of dimensions a German token shares with its English source. */
  private[text] val AlignFrac = 0.4
  /** Scale of the token-specific cross-lingual noise. */
  private val CrossNoise = 0.55
}
