package repro.forest

import repro.text.Tokenizer

/** Classic string-similarity features for the pre-deep-learning baselines
  * (Random Forest + QBC, per Mozafari et al. / Meduri et al.).
  *
  * Per attribute: token Jaccard, trigram Jaccard, exact equality, numeric
  * similarity (1 − relative difference when both values parse as numbers,
  * else 0). Plus two whole-record features: token Jaccard and overlap.
  */
object SimFeatures {

  def nFeatures(nAttrs: Int): Int = 4 * nAttrs + 2

  def features(rAttrs: Seq[String], sAttrs: Seq[String]): Array[Double] = {
    require(rAttrs.length == sAttrs.length, "schema mismatch in SimFeatures")
    val out = new Array[Double](nFeatures(rAttrs.length))
    var i = 0
    while (i < rAttrs.length) {
      val a = rAttrs(i); val b = sAttrs(i)
      val at = Tokenizer.tokens(a).toSet
      val bt = Tokenizer.tokens(b).toSet
      out(4 * i) = Tokenizer.jaccard(at, bt)
      out(4 * i + 1) = Tokenizer.jaccard(at.flatMap(Tokenizer.trigrams), bt.flatMap(Tokenizer.trigrams))
      out(4 * i + 2) = if (a.nonEmpty && a == b) 1.0 else 0.0
      out(4 * i + 3) = numericSim(a, b)
      i += 1
    }
    val ra = Tokenizer.recordTokens(rAttrs).toSet
    val sa = Tokenizer.recordTokens(sAttrs).toSet
    out(4 * rAttrs.length) = Tokenizer.jaccard(ra, sa)
    out(4 * rAttrs.length + 1) = Tokenizer.overlap(ra, sa)
    out
  }

  def numericSim(a: String, b: String): Double =
    (parse(a), parse(b)) match {
      case (Some(x), Some(y)) =>
        val denom = math.max(math.max(math.abs(x), math.abs(y)), 1e-9)
        math.max(0.0, 1.0 - math.abs(x - y) / denom)
      case _ => 0.0
    }

  private def parse(s: String): Option[Double] =
    try { val t = s.trim; if (t.isEmpty) None else Some(t.toDouble) }
    catch { case _: NumberFormatException => None }
}
