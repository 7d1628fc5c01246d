package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.Vec
import repro.util.Rnd

class CommitteeSpec extends AnyFunSuite {
  private val d = 6
  private val g = new Rnd.Gen(1)
  private def vec(): Array[Double] = Array.fill(d)(g.nextGaussian())

  test("init creates N members with ~p mask fraction") {
    val c = Committee.init(50, 32, maskP = 0.5, seed = 1)
    assert(c.n == 50)
    val frac = c.members.map(_.mask.sum / 32).sum / 50
    assert(math.abs(frac - 0.5) < 0.1, s"mask fraction $frac")
  }

  test("init never masks everything") {
    val c = Committee.init(100, 4, maskP = 0.01, seed = 2)
    assert(c.members.forall(_.mask.sum >= 1.0))
  }

  test("members differ (mask and weights)") {
    val c = Committee.init(3, 16, 0.5, seed = 3)
    assert(c.members.map(_.mask.toSeq).distinct.size == 3)
    assert(c.members.map(_.u.toSeq).distinct.size == 3)
  }

  test("init is deterministic") {
    val a = Committee.init(2, 8, 0.5, seed = 4)
    val b = Committee.init(2, 8, 0.5, seed = 4)
    assert(a.members.map(_.u.toSeq) == b.members.map(_.u.toSeq))
  }

  test("encode output is tanh-bounded") {
    val c = Committee.init(1, d, 1.0, seed = 5)
    val out = c.members.head.encode(Array.fill(d)(100.0))
    assert(out.forall(v => v >= -1.0 && v <= 1.0))
  }

  test("near-identity init roughly preserves the embedding") {
    val m = Committee.init(1, d, 1.0, seed = 6).members.head
    val e = Array.fill(d)(0.3)
    val out = m.encode(e)
    out.indices.foreach(i => assert(math.abs(out(i) - math.tanh(0.3)) < 0.3))
  }

  test("masked dimensions do not affect the output") {
    val m = Committee.init(1, d, 0.5, seed = 7).members.head
    val masked = m.mask.indexOf(0.0)
    assume(masked >= 0)
    val e1 = vec(); val e2 = e1.clone(); e2(masked) += 100.0
    assert(m.encode(e1).toSeq == m.encode(e2).toSeq)
  }

  private def fdCheckU(m: Member, loss: () => Double, analytic: Array[Double],
                       probes: Seq[Int], tol: Double = 2e-4): Unit = {
    val h = 1e-5
    probes.foreach { i =>
      val orig = m.u(i)
      m.u(i) = orig + h; val lp = loss()
      m.u(i) = orig - h; val lm = loss()
      m.u(i) = orig
      val num = (lp - lm) / (2 * h)
      assert(math.abs(analytic(i) - num) < tol, s"u[$i]: ${analytic(i)} vs $num")
    }
  }

  test("contrastive loss gradient matches finite differences") {
    val m = Committee.init(1, d, 1.0, seed = 9).members.head
    val pos = IndexedSeq((vec(), vec()), (vec(), vec()))
    val negR = IndexedSeq(vec(), vec(), vec())
    val negS = IndexedSeq(vec(), vec(), vec())
    val (_, gU, _) = Committee.batchLossGrad(m, Contrastive, Array.emptyDoubleArray, pos, negR, negS)
    fdCheckU(m, () => Committee.batchLossGrad(m, Contrastive, Array.emptyDoubleArray, pos, negR, negS)._1, gU,
             Seq(0, 1, d, d + 1, 2 * d + 3, m.u.length - 1))
  }

  test("triplet loss gradient matches finite differences") {
    val m = Committee.init(1, d, 1.0, seed = 10).members.head
    val pos = IndexedSeq((vec(), vec()), (vec(), vec()))
    val negR = IndexedSeq(vec(), vec())
    val negS = IndexedSeq(vec(), vec())
    val (_, gU, _) = Committee.batchLossGrad(m, Triplet, Array.emptyDoubleArray, pos, negR, negS)
    fdCheckU(m, () => Committee.batchLossGrad(m, Triplet, Array.emptyDoubleArray, pos, negR, negS)._1, gU,
             Seq(0, d - 1, d, 3 * d, m.u.length - 1))
  }

  test("classification loss gradients match finite differences (U and head)") {
    val m = Committee.init(1, d, 1.0, seed = 11).members.head
    val hg = new Rnd.Gen(12)
    val head = Array.fill(3 * d + 1)(0.3 * hg.nextGaussian())
    val pos = IndexedSeq((vec(), vec()))
    val negR = IndexedSeq(vec(), vec())
    val negS = IndexedSeq(vec(), vec())
    val (_, gU, gHead) = Committee.batchLossGrad(m, Classification, head, pos, negR, negS)
    fdCheckU(m, () => Committee.batchLossGrad(m, Classification, head, pos, negR, negS)._1, gU,
             Seq(0, d, 2 * d + 1, m.u.length - 1))
    val h = 1e-5
    Seq(0, d, 3 * d).foreach { i =>
      val orig = head(i)
      head(i) = orig + h; val lp = Committee.batchLossGrad(m, Classification, head, pos, negR, negS)._1
      head(i) = orig - h; val lm = Committee.batchLossGrad(m, Classification, head, pos, negR, negS)._1
      head(i) = orig
      val num = (lp - lm) / (2 * h)
      assert(math.abs(gHead(i) - num) < 2e-4, s"head[$i]: ${gHead(i)} vs $num")
    }
  }

  /** Synthetic blocking world: duplicates are noisy copies. */
  private def world(n: Int, seed: Long): (IndexedSeq[(Array[Double], Array[Double])],
                                          IndexedSeq[Array[Double]], IndexedSeq[Array[Double]]) = {
    val rng = new Rnd.Gen(seed)
    val pos = IndexedSeq.fill(n) {
      val e = Array.fill(d)(rng.nextGaussian())
      // substantial duplicate noise so the untrained near-identity members
      // do NOT already co-embed duplicates — training must earn the recall
      val dup = e.clone(); dup.indices.foreach(i => dup(i) += 0.8 * rng.nextGaussian())
      (e, dup)
    }
    val rPool = IndexedSeq.fill(40)(Array.fill(d)(rng.nextGaussian()))
    val sPool = IndexedSeq.fill(40)(Array.fill(d)(rng.nextGaussian()))
    (pos, rPool, sPool)
  }

  test("contrastive training with random negatives co-embeds duplicates") {
    val (pos, rPool, sPool) = world(24, 20)
    val com = Committee.init(1, d, 1.0, seed = 21)
    val m = com.members.head
    def sep(): Double = {
      // mean(dup distance) relative to mean(random distance)
      val dd = pos.map { case (a, b) => Vec.distSq(m.encode(a), m.encode(b)) }.sum / pos.size
      val rd = rPool.zip(sPool).map { case (a, b) => Vec.distSq(m.encode(a), m.encode(b)) }.sum / rPool.size
      dd / rd
    }
    val before = sep()
    Committee.train(com, Committee.TrainConfig(epochs = 40),
                    pos, rPool, sPool, IndexedSeq.empty, new Rnd.Gen(22))
    val after = sep()
    assert(after < before, s"separation ratio before=$before after=$after")
    assert(after < 0.6, s"duplicates not co-embedded: $after")
  }

  test("training reduces the contrastive loss") {
    val (pos, rPool, sPool) = world(16, 30)
    val com = Committee.init(2, d, 0.8, seed = 31)
    val (l1, _) = Committee.train(com, Committee.TrainConfig(epochs = 2),
                                  pos, rPool, sPool, IndexedSeq.empty, new Rnd.Gen(32))
    val (l2, _) = Committee.train(com, Committee.TrainConfig(epochs = 30),
                                  pos, rPool, sPool, IndexedSeq.empty, new Rnd.Gen(33))
    assert(l2 < l1, s"loss did not decrease: $l1 -> $l2")
  }

  test("labeled-negatives mode requires labeled negatives") {
    val (pos, rPool, sPool) = world(4, 40)
    val com = Committee.init(1, d, 1.0, seed = 41)
    intercept[IllegalArgumentException] {
      Committee.train(com, Committee.TrainConfig(negMode = LabeledNegs, epochs = 1),
                      pos, rPool, sPool, IndexedSeq.empty, new Rnd.Gen(42))
    }
  }

  test("training with no positives rejects") {
    val com = Committee.init(1, d, 1.0, seed = 51)
    intercept[IllegalArgumentException] {
      Committee.train(com, Committee.TrainConfig(), IndexedSeq.empty,
                      IndexedSeq(vec()), IndexedSeq(vec()), IndexedSeq.empty, new Rnd.Gen(52))
    }
  }

  test("all three objectives run end-to-end") {
    val (pos, rPool, sPool) = world(8, 60)
    val negs = rPool.zip(sPool).take(8)
    Seq(Contrastive, Triplet, Classification).foreach { obj =>
      val com = Committee.init(2, d, 0.7, seed = 61)
      val (loss, _) = Committee.train(com, Committee.TrainConfig(objective = obj, epochs = 3),
                                      pos, rPool, sPool, negs, new Rnd.Gen(62))
      assert(!loss.isNaN && !loss.isInfinite, s"$obj produced $loss")
    }
  }

  test("views compose: MemberView = member ∘ scale") {
    val emb = new repro.text.HashEmbedding(d = d, seed = 42)
    val member = Committee.init(1, d, 1.0, seed = 70).members.head
    val gScale = Array.fill(d)(1.3)
    val attrs = Seq("some tokens here")
    val base = emb.recordVec(attrs)
    val mv = new MemberView(gScale, member)
    assert(mv(base).toSeq == member.encode(Vec.had(gScale, base)).toSeq)
    assert(new PlainView()(base).toSeq == base.toSeq)
    assert(new ScaleView(gScale)(base).toSeq == Vec.had(gScale, base).toSeq)
  }
}
