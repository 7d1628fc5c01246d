package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.index.EmbView

/** CAND's invariants as properties of [[Blocker.retrieveCand]], over tiny
  * generated R and S embeddings (small integer coordinates, so distances
  * tie) and random views: the plain embedding, a matcher scale, and
  * committee members with random masks.
  */
class CandPropertySpec extends AnyFunSuite {
  import CandPropertySpec._

  private def vecs(n: Int, d: Int): Gen[Array[Array[Double]]] =
    Gen.listOfN(n, Gen.listOfN(d, Gen.oneOf(Gen.choose(-2, 2).map(_.toDouble), Gen.choose(-1.0, 1.0))))
      .map(_.map(_.toArray).toArray)

  private def view(d: Int): Gen[EmbView] = Gen.oneOf(
    Gen.const(new PlainView),
    vecs(1, d).map(g => new ScaleView(g.head)),
    for (g <- vecs(1, d); maskP <- Gen.choose(0.0, 1.0); seed <- Gen.long)
      yield new MemberView(g.head, Committee.init(1, d, maskP, seed).members.head))

  private val genCase: Gen[Case] = for {
    d <- Gen.choose(1, 5)
    rBase <- Gen.choose(1, 6).flatMap(vecs(_, d))
    sBase <- Gen.choose(1, 6).flatMap(vecs(_, d))
    views <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, view(d)))
    k <- Gen.choose(0, 7)
    candSize <- Gen.choose(0, 40)
  } yield Case(rBase, sBase, views.toIndexedSeq, k, candSize)

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }

  test("CAND is duplicate-free and holds at most candSize pairs") {
    check(Prop.forAllNoShrink(genCase) { c =>
      val cand = c.cand(c.k, c.candSize)
      cand.map(p => (p.rId, p.sId)).distinct.length == cand.length && cand.length <= c.candSize
    })
  }

  test("CAND is ordered by (distance, r id, s id)") {
    check(Prop.forAllNoShrink(genCase) { c =>
      val cand = c.cand(c.k, c.candSize)
      cand.zip(cand.drop(1)).forall { case (a, b) =>
        val byDist = java.lang.Double.compare(a.dist, b.dist)
        byDist < 0 || byDist == 0 && (a.rId < b.rId || a.rId == b.rId && a.sId < b.sId)
      }
    })
  }

  test("the uncut union for k is a subset of the union for k + 1") {
    check(Prop.forAllNoShrink(genCase) { c =>
      val pairs = (k: Int) => c.cand(k, Int.MaxValue).map(p => (p.rId, p.sId)).toSet
      pairs(c.k).subsetOf(pairs(c.k + 1))
    })
  }
}

object CandPropertySpec {
  private final case class Case(rBase: Array[Array[Double]], sBase: Array[Array[Double]],
                                views: IndexedSeq[EmbView], k: Int, candSize: Int) {
    def cand(k: Int, candSize: Int): IndexedSeq[CandPair] =
      Blocker.retrieveCand(sBase, views, Blocker.buildIndexes(rBase, views), k, candSize)
  }
}
