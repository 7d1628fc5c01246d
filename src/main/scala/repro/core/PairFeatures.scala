package repro.core

import repro.text.Tokenizer
import repro.util.Par
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
  * The features are defined over the records' token sets, trigram sets and
  * Scala `Set` operations (`PairFeaturesSpec` keeps that definition as its
  * reference). They are computed from two [[RecordProfile]]s by merge-joins
  * over interned ids, and equal the set definition bit for bit.
  */
object PairFeatures {
  val nScalar = 7

  /** Featurizer with no corpus statistics (uniform IDF). */
  val plain = new PairFeaturizer(Map.empty)

  /** Convenience for tests and corpus-less callers. */
  def scalars(rAttrs: Seq[String], sAttrs: Seq[String]): Array[Double] =
    plain.scalars(rAttrs, sAttrs)

  /** Build IDF weights log(1 + N/df) from a corpus of records' token sets. */
  def idfFrom(tokenSets: Iterable[Set[String]]): Map[String, Double] = {
    val df = scala.collection.mutable.HashMap.empty[String, Int]
    var n = 0
    tokenSets.foreach { ts => n += 1; ts.foreach(t => df(t) = df.getOrElse(t, 0) + 1) }
    df.iterator.map { case (t, c) => t -> math.log(1.0 + n.toDouble / c) }.toMap
  }

  /** The seven features of a pair whose profiles come from one
    * [[PairFeaturizer.profiles]] call (or one [[PairFeaturizer.scalars]]).
    *
    * Jaccard and overlap values are ratios of integer counts. The
    * IDF-weighted Jaccard and the alignment score are floating-point sums
    * whose value depends on the order of their terms, so each runs in the
    * iteration order of the `Set` the definition sums over; see
    * [[setOrderSum]]. The alignment's token-by-token trigram-Jaccard matrix
    * is computed once and read by row for the r → s direction, by column
    * for s → r, and over digit tokens for the model-number similarity.
    */
  def scalars(r: RecordProfile, s: RecordProfile): Array[Double] = {
    val nr = r.toks.length
    val ns = s.toks.length

    // Union and intersection of the token sets, merged in trie-key order.
    val uKey = new Array[Int](nr + ns); val uW = new Array[Double](nr + ns)
    val iKey = new Array[Int](math.min(nr, ns)); val iW = new Array[Double](math.min(nr, ns))
    var nu, ni, i, j = 0
    while (i < nr || j < ns) {
      val a = if (i < nr) r.trie(i) else Long.MaxValue
      val b = if (j < ns) s.trie(j) else Long.MaxValue
      if (a <= b) { uKey(nu) = (a >> 32).toInt; uW(nu) = r.trieWeights(i); i += 1 }
      else { uKey(nu) = (b >> 32).toInt; uW(nu) = s.trieWeights(j); j += 1 }
      nu += 1
      if (a == b) { iKey(ni) = (a >> 32).toInt; iW(ni) = r.trieWeights(i - 1); ni += 1; j += 1 }
    }

    val idfJac =
      if (nu == 0) 0.0
      else if (hasEqualNeighbours(uKey, nu)) r.featurizer.setIdfJac(r.attrs, s.attrs)
      else {
        // Set1–Set4 keep insertion order: `intersect` filters r's set in its
        // order, `union` appends s's new tokens in s's order. Larger sets
        // (and any `filter` of a HashSet) are HashSets.
        val interSum =
          if (nr <= 4) {
            var sum = 0.0; var k = 0
            while (k < nr) { if (s.toks.contains(r.toks(k))) sum += r.weights(k); k += 1 }
            sum
          } else setOrderSum(iKey, iW, ni)
        val unionSum =
          if (nu <= 4) {
            var sum = 0.0; var k = 0
            while (k < nr) { sum += r.weights(k); k += 1 }
            k = 0
            while (k < ns) { if (!r.toks.contains(s.toks(k))) sum += s.weights(k); k += 1 }
            sum
          } else setOrderSum(uKey, uW, nu)
        interSum / unionSum
      }

    // Token-by-token trigram Jaccard: row and column maxima, and the maximum
    // and an exact match over pairs of digit-holding tokens.
    val rowBest = new Array[Double](nr)
    val colBest = new Array[Double](ns)
    var digitBest = 0.0
    var digitShared = false
    i = 0
    while (i < nr) {
      j = 0
      while (j < ns) {
        val same = r.toks(i) == s.toks(j)
        val v = if (same) 1.0 else jaccard(r.tokGrams(i), s.tokGrams(j))
        if (v > rowBest(i)) rowBest(i) = v
        if (v > colBest(j)) colBest(j) = v
        if (r.isDigit(i) && s.isDigit(j)) {
          if (v > digitBest) digitBest = v
          if (same) digitShared = true
        }
        j += 1
      }
      i += 1
    }
    val bothDigits = r.isDigit.contains(true) && s.isDigit.contains(true)
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
      jaccard(r.grams, s.grams),
      idfJac,
      digitAgree,
      digitSim,
      align,
    )
  }

  /** IDF-weighted greedy token alignment: each token's weight times its best
    * trigram-Jaccard partner on the other side, over the total weight —
    * typos keep high alignment, replaced tokens do not. The proxy for soft
    * cross-attention over token pairs. Summed in the record's set order.
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

  /** Jaccard of two sorted, distinct id arrays. */
  private def jaccard(a: Array[Int], b: Array[Int]): Double = {
    var inter, i, j = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { inter += 1; i += 1; j += 1 }
    }
    jaccard(inter, a.length, b.length)
  }

  // ------------------------------------------------- HashSet iteration order

  /** Scala's `HashSet` hash spreader (`scala.collection.Hashing.improve`). */
  private def improve(hcode: Int): Int = {
    var h = hcode + ~(hcode << 9)
    h = h ^ (h >>> 14)
    h = h + (h << 4)
    h ^ (h >>> 10)
  }

  /** A token's position in a `HashSet` trie: the 5-bit chunks of its
    * improved hash from the root down (chunk 0 in the top bits, the 2-bit
    * chunk 6 at the bottom), sign-flipped so that `Int` order is trie order.
    * Equal keys mean equal `hashCode`s. Profiles order their tokens by
    * (trie key, id), the order the merge-joins walk.
    */
  private[core] def trieKey(token: String): Int = {
    val h = improve(token.##)
    var k = 0; var l = 0
    while (l < 6) { k = (k << 5) | ((h >>> (5 * l)) & 31); l += 1 }
    ((k << 2) | (h >>> 30)) ^ Int.MinValue
  }

  private def hasEqualNeighbours(keys: Array[Int], n: Int): Boolean = {
    var k = 1
    while (k < n && keys(k - 1) != keys(k)) k += 1
    k < n
  }

  /** Σ `w` in the iteration order of an immutable `HashSet` of the
    * elements with trie keys `keys(0 until n)` (ascending, all distinct).
    *
    * A `HashSet` is a CHAMP trie whose shape is a function of its elements:
    * an element sits in the payload of the first node where no other
    * element shares its hash chunk, i.e. at the depth one past its longest
    * common chunk prefix with any other element (an adjacent one in trie
    * order). Iteration visits a node's payload before its sub-nodes, each
    * by ascending chunk. Elements whose full hashes are equal share a
    * collision node ordered by insertion history, which this does not
    * model; the caller rules them out. The low 20 bits of the sort key
    * carry the element's index, so n stays below 2^20 (a pair's tokens).
    */
  private def setOrderSum(keys: Array[Int], w: Array[Double], n: Int): Double = {
    val order = new Array[Long](n)
    var i = 0
    while (i < n) {
      val depth = math.max(if (i > 0) sharedChunks(keys(i - 1), keys(i)) else 0,
                           if (i + 1 < n) sharedChunks(keys(i), keys(i + 1)) else 0)
      order(i) = (iterationKey(keys(i), depth) << 20) | i
      i += 1
    }
    java.util.Arrays.sort(order)
    var sum = 0.0
    i = 0
    while (i < n) { sum += w((order(i) & 0xFFFFF).toInt); i += 1 }
    sum
  }

  /** Leading hash chunks two distinct trie keys share. */
  private def sharedChunks(a: Int, b: Int): Int = Integer.numberOfLeadingZeros(a ^ b) / 5

  /** Sort key of an element stored in the payload at `depth`: one 6-bit
    * digit per level, 32 + chunk for each sub-node passed through and the
    * bare chunk at the payload level, so a node's payload sorts before its
    * sub-nodes.
    */
  private def iterationKey(key: Int, depth: Int): Long = {
    val u = key ^ Int.MinValue
    var p = 0L; var l = 0
    while (l <= depth) {
      val c = if (l < 6) (u >>> (27 - 5 * l)) & 31 else u & 3
      p = (p << 6) | (if (l < depth) 32 + c else c)
      l += 1
    }
    p << (6 * (6 - depth))
  }
}

/** What the pair features need of one record, computed once per record.
  * Per distinct token, in the iteration order of the record's token `Set`
  * (the order the feature sums run in): its interned id, IDF weight, sorted
  * distinct trigram ids and whether it holds a digit. The same tokens as
  * (trie key, id) packed into a `Long` (see `PairFeatures.trieKey`),
  * ascending, with their weights, for merge-joins. And the sorted distinct
  * trigram ids of the whole record. Ids are those of the dictionary of the
  * call that built the profile; profiles pair only with profiles of the
  * same call.
  */
final class RecordProfile private[core] (
    private[core] val attrs: Seq[String],
    private[core] val featurizer: PairFeaturizer,
    private[core] val toks: Array[Int],
    private[core] val weights: Array[Double],
    private[core] val tokGrams: Array[Array[Int]],
    private[core] val isDigit: Array[Boolean],
    private[core] val trie: Array[Long],
    private[core] val trieWeights: Array[Double],
    private[core] val grams: Array[Int],
)

final class PairFeaturizer(idf: Map[String, Double]) extends Serializable {
  private val defaultIdf: Double =
    if (idf.isEmpty) 1.0 else idf.values.max // unseen tokens are maximally rare

  private def w(t: String): Double = idf.getOrElse(t, defaultIdf)

  /** Features of one pair, profiling just these two records. */
  def scalars(rAttrs: Seq[String], sAttrs: Seq[String]): Array[Double] = {
    val dict = new PairFeaturizer.Dictionary(this)
    val rIds = dict.intern(PairFeaturizer.setOrder(rAttrs))
    val sIds = dict.intern(PairFeaturizer.setOrder(sAttrs))
    PairFeatures.scalars(dict.profile(rAttrs, rIds), dict.profile(sAttrs, sIds))
  }

  /** Profiles of `records` under one dictionary, so that any two of them
    * pair. Tokenising and assembling run concurrently per record;
    * interning runs on the caller's thread in record order.
    */
  def profiles(records: IndexedSeq[Seq[String]]): IndexedSeq[RecordProfile] = {
    val dict = new PairFeaturizer.Dictionary(this)
    val ids = Par.tabulate(records.length)(i => PairFeaturizer.setOrder(records(i))).map(dict.intern)
    Par.tabulate(records.length)(i => dict.profile(records(i), ids(i)))
  }

  /** The IDF-weighted Jaccard by its set definition, for the rare pair with
    * two distinct tokens of equal `hashCode`, whose `HashSet` order depends
    * on insertion history.
    */
  private[core] def setIdfJac(rAttrs: Seq[String], sAttrs: Seq[String]): Double = {
    val rToks = Tokenizer.recordTokens(rAttrs).toSet
    val sToks = Tokenizer.recordTokens(sAttrs).toSet
    val union = rToks.union(sToks)
    if (union.isEmpty) 0.0
    else rToks.intersect(sToks).iterator.map(w).sum / union.iterator.map(w).sum
  }
}

object PairFeaturizer {

  /** A record's distinct tokens in the iteration order of its token `Set`. */
  private def setOrder(attrs: Seq[String]): Array[String] =
    Tokenizer.recordTokens(attrs).toSet.toArray

  private final class Token(val key: Int, val weight: Double, val grams: Array[Int], val digit: Boolean)

  /** Token and trigram ids of one set of profiles. `intern` is
    * single-threaded; `profile` only reads and may run concurrently once
    * interning is done.
    */
  private final class Dictionary(f: PairFeaturizer) {
    private val tokenIds = mutable.HashMap.empty[String, Int]
    private val gramIds = mutable.HashMap.empty[String, Int]
    private val tokens = mutable.ArrayBuffer.empty[Token]

    def intern(toks: Array[String]): Array[Int] = toks.map { t =>
      tokenIds.getOrElseUpdate(t, {
        val grams = sortedDistinct(Tokenizer.trigrams(t).map(g => gramIds.getOrElseUpdate(g, gramIds.size)))
        tokens += new Token(PairFeatures.trieKey(t), f.w(t), grams, t.exists(_.isDigit))
        tokens.size - 1
      })
    }

    def profile(attrs: Seq[String], ids: Array[Int]): RecordProfile = {
      val info = ids.map(tokens)
      val trie = ids.map(id => (tokens(id).key.toLong << 32) | id)
      java.util.Arrays.sort(trie)
      new RecordProfile(attrs, f, ids, info.map(_.weight), info.map(_.grams), info.map(_.digit),
        trie, trie.map(kv => tokens(kv.toInt).weight), sortedDistinct(info.flatMap(_.grams)))
    }
  }

  private def sortedDistinct(xs: Array[Int]): Array[Int] = {
    java.util.Arrays.sort(xs)
    var n = 0
    xs.indices.foreach { k => if (k == 0 || xs(k) != xs(k - 1)) { xs(n) = xs(k); n += 1 } }
    java.util.Arrays.copyOf(xs, n)
  }
}
