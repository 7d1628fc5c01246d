package repro.text

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.Vec

class HashEmbeddingSpec extends AnyFunSuite {
  private val emb = new HashEmbedding(d = 64, seed = 42)

  test("token embeddings are deterministic") {
    assert(emb.tokenVec("hello").toSeq == emb.tokenVec("hello").toSeq)
    val emb2 = new HashEmbedding(d = 64, seed = 42)
    assert(emb.tokenVec("hello").toSeq == emb2.tokenVec("hello").toSeq)
  }

  test("different tokens embed differently") {
    assert(Vec.distSq(emb.tokenVec("hello"), emb.tokenVec("world")) > 0.1)
  }

  test("different seeds give a different pretrained space") {
    val other = new HashEmbedding(d = 64, seed = 43)
    assert(emb.tokenVec("hello").toSeq != other.tokenVec("hello").toSeq)
  }

  test("embedding has the configured dimension") {
    assert(emb.tokenVec("x").length == 64)
    assert(emb.recordVec(Seq("a b c")).length == 64)
    assert(new HashEmbedding(d = 16).tokenVec("x").length == 16)
  }

  test("typo'd token stays closer than an unrelated token") {
    val base = emb.tokenVec("television")
    val typo = emb.tokenVec("televsion")
    val other = emb.tokenVec("keyboard")
    assert(Vec.distSq(base, typo) < Vec.distSq(base, other))
  }

  test("record embedding is the normalised mean of token embeddings (Eq. 3)") {
    val a = emb.tokenVec("aa")
    val b = emb.tokenVec("bb")
    val mean = Array.tabulate(a.length)(i => (a(i) + b(i)) / 2)
    Vec.scaleI(mean, 1.0 / Vec.l2(mean))
    val rec = emb.recordVec(Seq("aa bb"))
    rec.indices.foreach(i => assert(math.abs(rec(i) - mean(i)) < 1e-12))
    assert(math.abs(Vec.l2(rec) - 1.0) < 1e-9)
  }

  test("record embedding ignores attribute boundaries") {
    assert(emb.recordVec(Seq("aa bb")).toSeq == emb.recordVec(Seq("aa", "bb")).toSeq)
  }

  test("empty record embeds at origin") {
    assert(emb.recordVec(Seq("", "  ")).forall(_ == 0.0))
  }

  test("duplicate records co-locate vs unrelated records") {
    val r = emb.recordVec(Seq("zorvex kx2741 wireless noise cancelling headset"))
    val dup = emb.recordVec(Seq("zorvex kx2741 wireles noise headset"))
    val other = emb.recordVec(Seq("plumbo dishwasher rack steel large"))
    assert(Vec.distSq(r, dup) < Vec.distSq(r, other))
  }

  test("multilingual: translation co-locates better than unrelated German token") {
    val dict = Map("haus" -> "house", "katze" -> "cat")
    val ml = new HashEmbedding(d = 64, seed = 42, germanToEnglish = dict)
    val en = ml.tokenVec("house")
    val de = ml.tokenVec("haus")
    val deOther = ml.tokenVec("katze")
    assert(Vec.distSq(en, de) < Vec.distSq(en, deOther))
  }

  test("multilingual: alignment is imperfect (scrambled subspace)") {
    val dict = Map("haus" -> "house")
    val ml = new HashEmbedding(d = 64, seed = 42, germanToEnglish = dict)
    val en = ml.tokenVec("house")
    val de = ml.tokenVec("haus")
    assert(Vec.distSq(en, de) > 1e-4) // not identical
    // the aligned subspace matches up to the pretraining noise
    val alignDim = (64 * HashEmbedding.AlignFrac).toInt
    val alignedDiff = (0 until alignDim).map(i => math.abs(en(i) - de(i))).max
    assert(alignedDiff < 0.5)
  }

  test("unknown German token falls back to monolingual hashing") {
    val ml = new HashEmbedding(d = 64, seed = 42, germanToEnglish = Map("a" -> "b"))
    assert(ml.tokenVec("unknowntoken").toSeq == emb.tokenVec("unknowntoken").toSeq)
  }

  test("embedding norm is O(1)") {
    val n = Vec.l2(emb.tokenVec("hello"))
    assert(n > 0.1 && n < 3.0, n.toString)
  }

  test("instance serialises (required for Spark broadcast)") {
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(emb)
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    val back = in.readObject().asInstanceOf[HashEmbedding]
    assert(back.tokenVec("hello").toSeq == emb.tokenVec("hello").toSeq)
  }
}
