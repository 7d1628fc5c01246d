package repro.text

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

class TokenizerSpec extends AnyFunSuite {

  /** The tokenizer as it was first written, kept as the reference: every
    * character that is not a letter or digit becomes a space, letters and
    * digits are lowercased one `char` at a time, and the result is split
    * on whitespace.
    */
  private def normalize(s: String): String = {
    val sb = new StringBuilder(s.length)
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (Character.isLetterOrDigit(c)) sb.append(Character.toLowerCase(c))
      else sb.append(' ')
      i += 1
    }
    sb.toString
  }

  private def referenceTokens(s: String): Array[String] = normalize(s).split("\\s+").filter(_.nonEmpty)

  test("normalize lowercases") { assert(normalize("AbC") == "abc") }

  test("normalize strips punctuation to spaces") {
    assert(normalize("a-b.c") == "a b c")
  }

  test("normalize keeps digits (model numbers survive)") {
    assert(Tokenizer.tokens("XJ-2000").toSeq == Seq("xj", "2000"))
  }

  test("tokens splits on whitespace and drops empties") {
    assert(Tokenizer.tokens("  hello   world  ").toSeq == Seq("hello", "world"))
  }

  test("tokens of empty string is empty") {
    assert(Tokenizer.tokens("").isEmpty)
    assert(Tokenizer.tokens("—!…").isEmpty)
  }

  test("tokens keeps alphanumeric runs together") {
    assert(Tokenizer.tokens("kx2741b").toSeq == Seq("kx2741b"))
  }

  /** Every `char` of one Unicode general category. */
  private def category(cat: Int): IndexedSeq[Char] =
    (Char.MinValue to Char.MaxValue).filter(c => Character.getType(c) == cat)

  // Code points above U+FFFF (letters, digits and symbols, so surrogate
  // pairs), lone surrogate halves, titlecase letters, every whitespace and
  // control character, every separator category, and letters whose
  // lowercase is another letter.
  private val astral = Seq(0x1D400, 0x1D7CE, 0x10400, 0x1F600, 0x20000, 0x1F1E6, 0x10FFFF)
    .map(cp => new String(Character.toChars(cp)))
  private val specials: IndexedSeq[Char] =
    (Char.MinValue to Char.MaxValue).filter(c => Character.isWhitespace(c) || Character.isSpaceChar(c) ||
      Character.isISOControl(c)) ++
    category(Character.TITLECASE_LETTER) ++ category(Character.FORMAT) ++
    category(Character.LINE_SEPARATOR) ++ category(Character.PARAGRAPH_SEPARATOR) ++
    Seq('\uD800', '\uDBFF', '\uDC00', '\uDFFF', 'İ', 'Σ', 'ς', 'ẞ', 'K', 'Ω', '٣', '੬', 'Ⅻ', '\u0085', '\u200B', '\uFEFF')
  private val genPiece: Gen[String] = Gen.frequency(
    4 -> Gen.alphaNumStr.map(_.take(6)),
    3 -> Gen.oneOf(specials).map(_.toString),
    2 -> Gen.oneOf(astral),
    2 -> Gen.choose(Char.MinValue, Char.MaxValue).map(_.toString),
    1 -> Gen.oneOf(" ", "  ", "-", ".", "/", "\t\n"))
  private val genText: Gen[String] = Gen.listOf(genPiece).map(_.mkString)

  test("tokens equals normalize + split on arbitrary Unicode text (scalacheck)") {
    val prop = Prop.forAll(genText) { s => Tokenizer.tokens(s).sameElements(referenceTokens(s)) }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(5000), prop)
    assert(res.passed, res.status.toString)
  }

  test("tokens equals normalize + split on every single char and every char between letters") {
    (Char.MinValue to Char.MaxValue).foreach { c =>
      Seq(c.toString, s"a${c}b", s"${c}Z$c").foreach { s =>
        assert(Tokenizer.tokens(s).sameElements(referenceTokens(s)), f"U+${c.toInt}%04X")
      }
    }
  }

  test("surrogate pairs and titlecase letters tokenize as the reference does") {
    val s = "x\uD835\uDC00y ǅungla 𝟎9 \u2028Ab\u00A0cD"
    assert(Tokenizer.tokens(s).toSeq == referenceTokens(s).toSeq)
    assert(Tokenizer.tokens("ǅungla").toSeq == Seq("ǆungla"))
  }

  test("trigrams of 'cat'") {
    assert(Tokenizer.trigrams("cat").toSeq == Seq("##c", "#ca", "cat", "at#", "t##"))
  }

  test("trigrams of one char") {
    assert(Tokenizer.trigrams("a").toSeq == Seq("##a", "#a#", "a##"))
  }

  test("one-char edit perturbs only a few trigrams") {
    val a = Tokenizer.trigrams("television").toSet
    val b = Tokenizer.trigrams("televsion").toSet // dropped char
    assert(Tokenizer.jaccard(a, b) > 0.5)
  }

  test("recordTokens concatenates attribute tokens") {
    assert(Tokenizer.recordTokens(Seq("a b", "c")).toSeq == Seq("a", "b", "c"))
  }

  test("jaccard of identical sets is 1") {
    assert(Tokenizer.jaccard(Set("a", "b"), Set("a", "b")) == 1.0)
  }

  test("jaccard of disjoint sets is 0") {
    assert(Tokenizer.jaccard(Set("a"), Set("b")) == 0.0)
  }

  test("jaccard of both-empty is 0 by convention") {
    assert(Tokenizer.jaccard(Set.empty, Set.empty) == 0.0)
  }

  test("jaccard half overlap") {
    assert(math.abs(Tokenizer.jaccard(Set("a", "b"), Set("b", "c")) - 1.0 / 3) < 1e-12)
  }

  test("overlap coefficient uses the smaller set") {
    assert(Tokenizer.overlap(Set("a"), Set("a", "b", "c")) == 1.0)
    assert(Tokenizer.overlap(Set("a", "x"), Set("a", "b", "c")) == 0.5)
  }

  test("overlap with empty set is 0") {
    assert(Tokenizer.overlap(Set.empty, Set("a")) == 0.0)
  }

  test("jaccard symmetric (scalacheck)") {
    val genSet = org.scalacheck.Gen.containerOf[Set, String](org.scalacheck.Gen.alphaStr.map(_.take(3)))
    val prop = org.scalacheck.Prop.forAll(genSet, genSet) { (a, b) =>
      Tokenizer.jaccard(a, b) == Tokenizer.jaccard(b, a)
    }
    assert(org.scalacheck.Test.check(org.scalacheck.Test.Parameters.default, prop).passed)
  }

  test("jaccard bounded in [0,1] (scalacheck)") {
    val genSet = org.scalacheck.Gen.containerOf[Set, String](org.scalacheck.Gen.alphaStr.map(_.take(3)))
    val prop = org.scalacheck.Prop.forAll(genSet, genSet) { (a, b) =>
      val j = Tokenizer.jaccard(a, b)
      j >= 0.0 && j <= 1.0
    }
    assert(org.scalacheck.Test.check(org.scalacheck.Test.Parameters.default, prop).passed)
  }
}
