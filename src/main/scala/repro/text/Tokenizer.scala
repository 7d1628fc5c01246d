package repro.text

/** Tokenisation shared by the embedding substrate, the rule blocker, the
  * similarity features and the JedAI pipelines.
  *
  * Deliberately simple and deterministic: a token is a maximal run of
  * letters and digits (which preserves model numbers like "xj2000"),
  * lowercased; everything else separates tokens.
  */
object Tokenizer {

  /** The maximal runs of letters and digits of `s`, lowercased, in order.
    * Characters are UTF-16 code units: `Character.isLetterOrDigit` and
    * `Character.toLowerCase` see each one alone, so the two halves of a
    * surrogate pair separate tokens like punctuation does.
    */
  def tokens(s: String): Array[String] = {
    val out = Array.newBuilder[String]
    val tok = new java.lang.StringBuilder
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (Character.isLetterOrDigit(c)) tok.append(Character.toLowerCase(c))
      else if (tok.length > 0) { out += tok.toString; tok.setLength(0) }
      i += 1
    }
    if (tok.length > 0) out += tok.toString
    out.result()
  }

  /** Character trigrams of a token padded with '#', e.g. "cat" →
    * {"##c","#ca","cat","at#","t##"}. These give the simulated TPLM its
    * robustness to typos (a one-character edit perturbs only a few grams).
    */
  def trigrams(token: String): Array[String] = {
    val padded = "##" + token + "##"
    Array.tabulate(padded.length - 2)(i => padded.substring(i, i + 3))
  }

  /** Token multiset of a whole record: all attribute values concatenated. */
  def recordTokens(values: Seq[String]): Array[String] =
    values.toArray.flatMap(tokens)

  def jaccard(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty && b.isEmpty) 0.0
    else {
      val inter = a.intersect(b).size.toDouble
      inter / (a.size + b.size - inter)
    }
  }

  /** Overlap coefficient |A ∩ B| / min(|A|, |B|). */
  def overlap(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty || b.isEmpty) 0.0
    else a.intersect(b).size.toDouble / math.min(a.size, b.size)
  }
}
