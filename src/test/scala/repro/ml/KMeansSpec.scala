package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rnd

class KMeansSpec extends AnyFunSuite {

  private def cluster(center: Array[Double], n: Int, seed: Long): IndexedSeq[Array[Double]] = {
    val g = new Rnd.Gen(seed)
    IndexedSeq.fill(n)(center.indices.map(i => center(i) + 0.1 * g.nextGaussian()).toArray)
  }

  test("ppSeeds returns k distinct indices") {
    val pts = cluster(Array(0.0, 0.0), 50, 1)
    val seeds = KMeans.ppSeeds(pts, 5, 2)
    assert(seeds.length == 5)
    assert(seeds.distinct.length == 5)
    assert(seeds.forall(i => i >= 0 && i < 50))
  }

  test("ppSeeds caps k at n") {
    val pts = cluster(Array(0.0), 3, 1)
    assert(KMeans.ppSeeds(pts, 10, 2).length == 3)
  }

  test("ppSeeds spreads across well-separated clusters") {
    val pts = cluster(Array(0.0, 0.0), 30, 1) ++ cluster(Array(100.0, 0.0), 30, 2) ++
              cluster(Array(0.0, 100.0), 30, 3)
    val seeds = KMeans.ppSeeds(pts, 3, 4)
    val regions = seeds.map { i =>
      val p = pts(i)
      if (p(0) > 50) "x" else if (p(1) > 50) "y" else "o"
    }.toSet
    assert(regions.size == 3, s"seeds fell in regions $regions")
  }

  test("ppSeeds handles identical points") {
    val pts = IndexedSeq.fill(10)(Array(1.0, 2.0))
    val seeds = KMeans.ppSeeds(pts, 3, 5)
    assert(seeds.length == 3 && seeds.distinct.length == 3)
  }

  test("ppSeeds on single point") {
    assert(KMeans.ppSeeds(IndexedSeq(Array(1.0)), 1, 6).toSeq == Seq(0))
  }

  test("ppSeeds rejects empty input") {
    intercept[IllegalArgumentException](KMeans.ppSeeds(IndexedSeq.empty, 1, 0))
  }
}
