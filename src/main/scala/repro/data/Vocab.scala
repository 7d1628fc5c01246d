package repro.data

import repro.util.Rnd

/** Deterministic synthetic vocabularies for the dataset generators.
  *
  * Words are pronounceable consonant–vowel strings derived from a seed, so
  * every dataset is a pure function of its seed and the DuckDB oracle sees
  * identical inputs across runs.
  */
final class Vocab(seed: Long) {
  private val g = new Rnd.Gen(seed)
  private val cons = "bcdfghklmnprstvz".toCharArray
  private val vows = "aeiou".toCharArray

  /** One synthetic word of `syl` syllables. */
  def word(syl: Int): String = {
    val sb = new StringBuilder
    var i = 0
    while (i < syl) {
      sb.append(cons(g.nextInt(cons.length)))
      sb.append(vows(g.nextInt(vows.length)))
      if (g.nextBoolean(0.3)) sb.append(cons(g.nextInt(cons.length)))
      i += 1
    }
    sb.toString
  }

  /** `n` distinct words with `syl` syllables each. */
  def words(n: Int, syl: Int): IndexedSeq[String] = {
    val seen = scala.collection.mutable.LinkedHashSet.empty[String]
    while (seen.size < n) seen += word(syl)
    seen.toIndexedSeq
  }

  /** Model-number-like token, e.g. "kx2741". */
  def modelNumber(): String = {
    val sb = new StringBuilder
    sb.append(cons(g.nextInt(cons.length)))
    sb.append(cons(g.nextInt(cons.length)))
    var i = 0
    val digits = 3 + g.nextInt(2)
    while (i < digits) { sb.append(('0' + g.nextInt(10)).toChar); i += 1 }
    sb.toString
  }

  def gen: Rnd.Gen = g
}

object Vocab {
  /** Deterministic pseudo-German form of an English word: consonant-shifted
    * characters plus a Germanic suffix. Injective in practice for our
    * synthetic vocabularies (collisions are checked by the generator).
    */
  def pseudoGerman(en: String): String = {
    val shifted = en.map {
      case 'a' => 'u'; case 'e' => 'a'; case 'i' => 'e'; case 'o' => 'i'; case 'u' => 'o'
      case c   => c
    }
    shifted + (en.length % 3 match {
      case 0 => "en"
      case 1 => "ung"
      case _ => "er"
    })
  }
}
