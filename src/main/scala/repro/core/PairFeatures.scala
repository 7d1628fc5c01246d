package repro.core

import repro.text.Tokenizer
import scala.collection.mutable

/** Schema-agnostic scalar similarity features of a record pair, standing in
  * for the paired-mode cross-attention signals a transformer extracts:
  *
  *  - plain token Jaccard and overlap, trigram Jaccard (robust surface sims);
  *  - corpus-IDF-weighted Jaccard — a transformer learns from pretraining
  *    which tokens are informative; IDF weighting is the classic proxy and
  *    is what lets the matcher ignore boilerplate in long textual records;
  *  - digit-token agreement — attention aligning model numbers / years /
  *    editions between the two records (the paper's §2.2.1 "book edition"
  *    argument): sharing one is strong evidence for, both having only
  *    disjoint ones strong evidence against.
  *
  * These are fixed (not trained); the trainable part of the paired
  * representation is the embedding path (|u−v|, u⊙v) in [[Matcher]].
  *
  * The features are defined over the records' token sets and trigram sets,
  * with every floating-point sum running in token order (`String.compareTo`);
  * `PairFeaturesSpec` keeps that definition as its reference. They are
  * computed from two [[RecordProfile]]s by merge-joins over token ranks and
  * interned trigram ids, and equal the definition exactly.
  */
object PairFeatures {
  val nScalar = 7

  /** The seven features of a pair whose profiles come from one
    * [[TokenDictionary]]: the dataset's, in [[Embedder]], or the one of a
    * [[PairFeaturizer.scalars]] call.
    *
    * Jaccard and overlap values are ratios of integer counts. The
    * IDF-weighted Jaccard and the alignment score are floating-point sums,
    * run in token order: a profile holds its tokens by ascending rank, and
    * rank order is token order. The alignment's token-by-token
    * trigram-Jaccard matrix is computed once from the trigram postings and
    * read by row for the r → s direction, by column for s → r, and over
    * digit tokens for the model-number similarity.
    */
  def scalars(r: RecordProfile, s: RecordProfile): Array[Double] = {
    val nr = r.toks.length
    val ns = s.toks.length

    // Intersection count and the intersection and union weights, one merge.
    var interSum, unionSum = 0.0
    var ni, i, j = 0
    while (i < nr || j < ns) {
      if (j == ns || (i < nr && r.toks(i) < s.toks(j))) { unionSum += r.weights(i); i += 1 }
      else if (i == nr || s.toks(j) < r.toks(i)) { unionSum += s.weights(j); j += 1 }
      else { interSum += r.weights(i); unionSum += r.weights(i); ni += 1; i += 1; j += 1 }
    }
    val idfJac = if (nr == 0 && ns == 0) 0.0 else interSum / unionSum

    // Token-by-token trigram Jaccard: row and column maxima, and the maximum
    // and an exact match over pairs of digit-holding tokens. One merge over
    // the two records' trigram postings counts the trigrams each token pair
    // shares and the trigrams the records share. A pair that shares none
    // has Jaccard 0.0, which raises no maximum (all start at 0.0), and equal
    // tokens share all their trigrams, so only pairs with a shared trigram
    // are evaluated.
    val inter = new Array[Int](nr * ns)
    var sharedGrams = 0
    var a, b = 0
    while (a < r.grams.length && b < s.grams.length) {
      if (r.grams(a) < s.grams(b)) a += 1
      else if (r.grams(a) > s.grams(b)) b += 1
      else {
        sharedGrams += 1
        var p = r.postStart(a)
        while (p < r.postStart(a + 1)) {
          val row = r.postToks(p) * ns
          var q = s.postStart(b)
          while (q < s.postStart(b + 1)) { inter(row + s.postToks(q)) += 1; q += 1 }
          p += 1
        }
        a += 1; b += 1
      }
    }
    val rowBest = new Array[Double](nr)
    val colBest = new Array[Double](ns)
    var digitBest = 0.0
    var digitShared = false
    i = 0
    while (i < nr) {
      j = 0
      while (j < ns) {
        val shared = inter(i * ns + j)
        if (shared > 0) {
          val same = r.toks(i) == s.toks(j)
          val v = if (same) 1.0 else jaccard(shared, r.nGrams(i), s.nGrams(j))
          if (v > rowBest(i)) rowBest(i) = v
          if (v > colBest(j)) colBest(j) = v
          if (r.isDigit(i) && s.isDigit(j)) {
            if (v > digitBest) digitBest = v
            if (same) digitShared = true
          }
        }
        j += 1
      }
      i += 1
    }
    val bothDigits = r.hasDigit && s.hasDigit
    val digitAgree =
      if (!bothDigits) 0.5     // no evidence
      else if (digitShared) 1.0 // aligned ids
      else 0.0                 // conflicting ids
    // continuous model-number alignment: exact id 1.0, typo'd id ~0.7,
    // a *different* id ~0.1 — the "attention on the edition/model token"
    val digitSim = if (!bothDigits) 0.5 else digitBest
    val align =
      if (nr == 0 || ns == 0) 0.0
      else (alignScore(r.weights, rowBest) + alignScore(s.weights, colBest)) / 2.0

    Array(
      jaccard(ni, nr, ns),
      if (nr == 0 || ns == 0) 0.0 else ni.toDouble / math.min(nr, ns),
      jaccard(sharedGrams, r.grams.length, s.grams.length),
      idfJac,
      digitAgree,
      digitSim,
      align,
    )
  }

  /** IDF-weighted greedy token alignment: each token's weight times its best
    * trigram-Jaccard partner on the other side, over the total weight —
    * typos keep high alignment, replaced tokens do not. The proxy for soft
    * cross-attention over token pairs. Summed in token order.
    */
  private def alignScore(weights: Array[Double], best: Array[Double]): Double = {
    var num = 0.0; var den = 0.0; var k = 0
    while (k < weights.length) { num += weights(k) * best(k); den += weights(k); k += 1 }
    num / den
  }

  /** |A ∩ B| / |A ∪ B| from the intersection count, as `Tokenizer.jaccard`. */
  private def jaccard(inter: Int, na: Int, nb: Int): Double =
    if (na == 0 && nb == 0) 0.0
    else { val x = inter.toDouble; x / (na + nb - x) }
}

/** What the pair features need of one record, computed once per record.
  * Per distinct token, ascending by rank: its rank, IDF weight, number of
  * distinct trigrams and whether it holds a digit. Per distinct trigram of
  * the record, ascending by id: the local indices (positions in `toks`) of
  * the tokens that hold it, ascending, at `postToks(postStart(g) until
  * postStart(g + 1))`. A token's rank is its position among the sorted
  * distinct tokens of the [[TokenDictionary]] that built the profile, and
  * trigram ids are interned by it; profiles pair only with profiles of the
  * same dictionary.
  */
final class RecordProfile private[core] (
    private[core] val toks: Array[Int],
    private[core] val weights: Array[Double],
    private[core] val nGrams: Array[Int],
    private[core] val isDigit: Array[Boolean],
    private[core] val grams: Array[Int],
    private[core] val postStart: Array[Int],
    private[core] val postToks: Array[Int],
) {
  /** Whether any token holds a digit. */
  private[core] val hasDigit: Boolean = isDigit.exists(identity)
}

/** The token dictionary of a list of records, given as each record's
  * distinct tokens: the distinct tokens of all of them, sorted
  * (`String.compareTo`), and by rank each token's digit flag and sorted
  * distinct trigram ids, trigrams interned once per distinct token. The
  * dataset's dictionary lives in [[Embedder]]; [[PairFeaturizer]] builds
  * one over the records of each call. Only reads after construction, so
  * `ranks` and `profile` may run concurrently.
  */
private[core] final class TokenDictionary(records: IndexedSeq[Array[String]]) {
  val tokens: Array[String] = {
    val distinct = new java.util.HashSet[String]
    records.foreach(_.foreach(distinct.add))
    distinct.toArray(new Array[String](0)).sorted
  }
  private val rankOf = new java.util.HashMap[String, Integer](2 * tokens.length)
  tokens.indices.foreach(i => rankOf.put(tokens(i), i))
  private val digit = tokens.map(_.exists(_.isDigit))
  private val grams = {
    val gramIds = new mutable.LongMap[Int]
    tokens.map { t =>
      val padded = "##" + t + "##"
      val ids = Array.tabulate(padded.length - 2) { i =>
        val key = (padded.charAt(i).toLong << 32) | (padded.charAt(i + 1).toLong << 16) | padded.charAt(i + 2)
        gramIds.getOrElseUpdate(key, gramIds.size)
      }
      TokenDictionary.sortedDistinct(ids)
    }
  }

  /** The ranks of the distinct tokens `toks`, which this dictionary holds, ascending. */
  def ranks(toks: Array[String]): Array[Int] = {
    val out = new Array[Int](toks.length)
    var i = 0
    while (i < toks.length) { out(i) = rankOf.get(toks(i)).intValue; i += 1 }
    java.util.Arrays.sort(out)
    out
  }

  /** The profile of the record whose distinct tokens have the ascending
    * `ranks`, with token weights `weight` by rank.
    */
  def profile(ranks: Array[Int], weight: Array[Double]): RecordProfile = {
    val nt = ranks.length
    val weights = new Array[Double](nt)
    val nGrams = new Array[Int](nt)
    val isDigit = new Array[Boolean](nt)
    var total = 0
    var t = 0
    while (t < nt) {
      val r = ranks(t)
      weights(t) = weight(r); nGrams(t) = grams(r).length; isDigit(t) = digit(r)
      total += nGrams(t)
      t += 1
    }
    // (trigram id, local token index) pairs, sorted: the postings in order
    val keys = new Array[Long](total)
    var k = 0
    t = 0
    while (t < nt) {
      val g = grams(ranks(t))
      var i = 0
      while (i < g.length) { keys(k) = (g(i).toLong << 32) | t; k += 1; i += 1 }
      t += 1
    }
    java.util.Arrays.sort(keys)
    val postToks = new Array[Int](total)
    val recGrams = new Array[Int](total)
    val postStart = new Array[Int](total + 1)
    var n = 0
    k = 0
    while (k < total) {
      val g = (keys(k) >>> 32).toInt
      postToks(k) = keys(k).toInt
      if (n == 0 || recGrams(n - 1) != g) { recGrams(n) = g; postStart(n) = k; n += 1 }
      k += 1
    }
    postStart(n) = total
    new RecordProfile(ranks, weights, nGrams, isDigit,
                      java.util.Arrays.copyOf(recGrams, n), java.util.Arrays.copyOf(postStart, n + 1), postToks)
  }
}

object TokenDictionary {

  /** The distinct tokens of one record, in order of first appearance. */
  def distinctTokens(attrs: Seq[String]): Array[String] = Tokenizer.recordTokens(attrs).distinct

  private def sortedDistinct(xs: Array[Int]): Array[Int] = {
    java.util.Arrays.sort(xs)
    var n = 0
    xs.indices.foreach { k => if (k == 0 || xs(k) != xs(k - 1)) { xs(n) = xs(k); n += 1 } }
    java.util.Arrays.copyOf(xs, n)
  }
}

final class PairFeaturizer(idf: Map[String, Double]) extends Serializable {
  private val defaultIdf: Double =
    if (idf.isEmpty) 1.0 else idf.values.max // unseen tokens are maximally rare

  /** Features of one pair, profiling just these two records. */
  def scalars(rAttrs: Seq[String], sAttrs: Seq[String]): Array[Double] = {
    val toks = IndexedSeq(rAttrs, sAttrs).map(TokenDictionary.distinctTokens)
    val dict = new TokenDictionary(toks)
    val w = dict.tokens.map(t => idf.getOrElse(t, defaultIdf))
    PairFeatures.scalars(dict.profile(dict.ranks(toks(0)), w), dict.profile(dict.ranks(toks(1)), w))
  }
}
