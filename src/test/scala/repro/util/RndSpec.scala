package repro.util

import org.scalatest.funsuite.AnyFunSuite

class RndSpec extends AnyFunSuite {

  test("hash64 is deterministic") {
    assert(Rnd.hash64("hello") == Rnd.hash64("hello"))
  }

  test("hash64 differs across strings") {
    val hs = Seq("a", "b", "ab", "ba", "", "aa").map(Rnd.hash64)
    assert(hs.distinct.size == hs.size)
  }

  test("hash64 of empty string is stable") {
    assert(Rnd.hash64("") == Rnd.hash64(""))
  }

  test("splitmix64 avalanche: nearby seeds produce distant outputs") {
    val a = Rnd.splitmix64(1)
    val b = Rnd.splitmix64(2)
    assert(java.lang.Long.bitCount(a ^ b) > 10)
  }

  test("combine is order-sensitive") {
    assert(Rnd.combine(1, 2) != Rnd.combine(2, 1))
  }

  test("Gen is deterministic in seed") {
    val a = new Rnd.Gen(5); val b = new Rnd.Gen(5)
    assert((1 to 100).map(_ => a.nextLong()) == (1 to 100).map(_ => b.nextLong()))
  }

  test("Gen differs across seeds") {
    val a = new Rnd.Gen(5); val b = new Rnd.Gen(6)
    assert((1 to 10).map(_ => a.nextLong()) != (1 to 10).map(_ => b.nextLong()))
  }

  test("nextDouble in [0,1)") {
    val g = new Rnd.Gen(1)
    (1 to 10000).foreach { _ =>
      val d = g.nextDouble()
      assert(d >= 0.0 && d < 1.0)
    }
  }

  test("nextDouble mean near 0.5") {
    val g = new Rnd.Gen(2)
    val mean = (1 to 20000).map(_ => g.nextDouble()).sum / 20000
    assert(math.abs(mean - 0.5) < 0.02)
  }

  test("nextInt respects bound") {
    val g = new Rnd.Gen(3)
    (1 to 5000).foreach { _ =>
      val n = 1 + g.nextInt(20)
      val v = g.nextInt(n)
      assert(v >= 0 && v < n)
    }
  }

  test("nextInt covers full range") {
    val g = new Rnd.Gen(4)
    val seen = (1 to 1000).map(_ => g.nextInt(5)).toSet
    assert(seen == Set(0, 1, 2, 3, 4))
  }

  test("nextInt rejects non-positive bound") {
    val g = new Rnd.Gen(4)
    intercept[IllegalArgumentException](g.nextInt(0))
  }

  test("nextGaussian mean ~0 and sd ~1") {
    val g = new Rnd.Gen(7)
    val xs = (1 to 20000).map(_ => g.nextGaussian())
    val mean = xs.sum / xs.size
    val sd = math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / xs.size)
    assert(math.abs(mean) < 0.03, s"mean=$mean")
    assert(math.abs(sd - 1.0) < 0.03, s"sd=$sd")
  }

  test("nextBoolean(p) frequency matches p") {
    val g = new Rnd.Gen(8)
    val hits = (1 to 20000).count(_ => g.nextBoolean(0.3))
    assert(math.abs(hits / 20000.0 - 0.3) < 0.02)
  }

  test("permutation is a permutation (scalacheck)") {
    val prop = org.scalacheck.Prop.forAll(org.scalacheck.Gen.choose(1, 50)) { n: Int =>
      val g = new Rnd.Gen(n.toLong)
      g.permutation(n).sorted.toSeq == (0 until n)
    }
    assert(org.scalacheck.Test.check(org.scalacheck.Test.Parameters.default, prop).passed)
  }

  test("permutation shuffles (not identity for n=30)") {
    val g = new Rnd.Gen(9)
    assert(g.permutation(30).toSeq != (0 until 30))
  }

  test("sampleDistinct returns k distinct in range (scalacheck)") {
    val gen = for {
      n <- org.scalacheck.Gen.choose(1, 40)
      seed <- org.scalacheck.Gen.choose(0L, 1000L)
    } yield (n, seed)
    val prop = org.scalacheck.Prop.forAll(gen) { case (n, seed) =>
      val g = new Rnd.Gen(seed)
      val k = 1 + (seed % n).toInt
      val s = g.sampleDistinct(n, k)
      s.length == k && s.distinct.length == k && s.forall(i => i >= 0 && i < n)
    }
    assert(org.scalacheck.Test.check(org.scalacheck.Test.Parameters.default, prop).passed)
  }

  test("sampleDistinct rejects k > n") {
    intercept[IllegalArgumentException](new Rnd.Gen(1).sampleDistinct(3, 4))
  }
}
