package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.Adam
import repro.util.Rnd

/** Committee training must equal the member-after-member loop over the
  * per-record reference arithmetic ([[ReferenceKernel]]) bit for bit: every
  * member's U, every classification head (Classification objective) and the
  * returned loss, compared with exact `==` on doubles, and it must leave its
  * generator where the reference loop leaves it.
  */
class CommitteeTrainSpec extends AnyFunSuite {
  private val d = 8

  /** The sequential training loop, kept as the reference: one shared `rng`,
    * members stepped one after another inside each mini-batch step, each
    * step computed by [[ReferenceKernel]] and AdamW over the whole of U.
    */
  private def sequentialTrain(c: Committee, cfg: Committee.TrainConfig,
                              pos: IndexedSeq[(Array[Double], Array[Double])],
                              rPool: IndexedSeq[Array[Double]], sPool: IndexedSeq[Array[Double]],
                              labeledNegs: IndexedSeq[(Array[Double], Array[Double])],
                              rng: Rnd.Gen): (Double, IndexedSeq[Array[Double]]) = {
    val d = c.members.head.d
    val adams = c.members.map(m => new Adam(m.u.length, Committee.Lr, weightDecay = 0.0))
    val heads = c.members.indices.map { k =>
      val g = new Rnd.Gen(Rnd.combine(0xC1A55L, k))
      Array.fill(3 * d + 1)(0.01 * g.nextGaussian())
    }
    val headAdams = heads.map(h => new Adam(h.length, Committee.Lr))
    var lastLoss = 0.0
    var epoch = 0
    while (epoch < cfg.epochs) {
      val order = rng.permutation(pos.length)
      var off = 0
      var epochLoss = 0.0
      var nTerms = 0
      while (off < pos.length) {
        val end = math.min(off + cfg.batch, pos.length)
        val batchPos = (off until end).map(i => pos(order(i)))
        val b = batchPos.length
        val (negR, negS) = cfg.negMode match {
          case RandomNegs =>
            (IndexedSeq.fill(b)(rPool(rng.nextInt(rPool.length))),
             IndexedSeq.fill(b)(sPool(rng.nextInt(sPool.length))))
          case LabeledNegs =>
            val drawn = IndexedSeq.fill(b)(labeledNegs(rng.nextInt(labeledNegs.length)))
            (drawn.map(_._1), drawn.map(_._2))
        }
        var k = 0
        while (k < c.n) {
          val m = c.members(k)
          val (nr, ns) = cfg.negMode match {
            case RandomNegs =>
              val pr = rng.permutation(b); val ps = rng.permutation(b)
              (pr.toIndexedSeq.map(negR), ps.toIndexedSeq.map(negS))
            case LabeledNegs => (negR, negS)
          }
          val loss = cfg.objective match {
            case Contrastive =>
              val (l, gU) = ReferenceKernel.contrastiveLossGrad(m, batchPos, nr, ns)
              adams(k).step(m.u, gU); l
            case Triplet =>
              val (l, gU) = ReferenceKernel.tripletLossGrad(m, batchPos, nr, ns, Committee.Margin)
              adams(k).step(m.u, gU); l
            case Classification =>
              val (l, gU, gHead) = ReferenceKernel.classificationLossGrad(m, heads(k), batchPos, nr, ns)
              adams(k).step(m.u, gU); headAdams(k).step(heads(k), gHead); l
          }
          epochLoss += loss; nTerms += 1
          k += 1
        }
        off = end
      }
      lastLoss = epochLoss / math.max(1, nTerms)
      epoch += 1
    }
    (lastLoss, heads)
  }

  private type World = (IndexedSeq[(Array[Double], Array[Double])], IndexedSeq[Array[Double]],
                        IndexedSeq[Array[Double]], IndexedSeq[(Array[Double], Array[Double])])

  // 40 positives: two full batches of 16 and a ragged one of 8 per epoch
  private val world: World = {
    val g = new Rnd.Gen(90)
    def vec() = Array.fill(d)(g.nextGaussian())
    val pos = IndexedSeq.fill(40) {
      val e = vec(); (e, e.map(_ + 0.5 * g.nextGaussian()))
    }
    val rPool = IndexedSeq.fill(60)(vec())
    val sPool = IndexedSeq.fill(70)(vec())
    val labeledNegs = IndexedSeq.fill(25)((vec(), vec()))
    (pos, rPool, sPool, labeledNegs)
  }

  private val cases = Seq(
    (Contrastive, RandomNegs), (Triplet, RandomNegs),
    (Classification, LabeledNegs), (Contrastive, LabeledNegs))

  private def assertMatchesReference(world: World, d: Int, objective: Objective, negMode: NegMode,
                                     n: Int, reps: Int): Unit =
    assertMatchesReference(world, objective, negMode, n, reps, () => Committee.init(n, d, 0.75, seed = 91))

  private def assertMatchesReference(world: World, objective: Objective, negMode: NegMode,
                                     n: Int, reps: Int, committee: () => Committee): Unit = {
    val (pos, rPool, sPool, labeledNegs) = world
    val cfg = Committee.TrainConfig(objective = objective, negMode = negMode, epochs = 4)
    val ref = committee()
    val refRng = new Rnd.Gen(92)
    val (refLoss, refHeads) = sequentialTrain(ref, cfg, pos, rPool, sPool, labeledNegs, refRng)
    val refNext = refRng.nextLong()
    (1 to reps).foreach { rep =>
      val com = committee()
      val rng = new Rnd.Gen(92)
      val (loss, heads) = Committee.train(com, cfg, pos, rPool, sPool, labeledNegs, rng)
      assert(loss == refLoss, s"repetition $rep: loss $loss vs $refLoss")
      assert(rng.nextLong() == refNext, s"repetition $rep: rng left in a different state")
      (0 until n).foreach { k =>
        assert(com.members(k).u.sameElements(ref.members(k).u), s"repetition $rep: member $k U")
        if (objective == Classification)
          assert(heads(k).sameElements(refHeads(k)), s"repetition $rep: member $k head")
      }
    }
  }

  for ((objective, negMode) <- cases; n <- Seq(1, 3, 10)) {
    test(s"concurrent training is bit-identical to the sequential loop: $objective × $negMode, N=$n") {
      assertMatchesReference(world, d, objective, negMode, n, reps = 5)
    }
  }

  /** The production shape: d = 64, 40 positives (batches of 16, 16 and a
    * ragged 8). Every pool holds an all-zero record (what `recordVec` gives
    * an empty record) and records with exact +0.0 and −0.0 entries.
    */
  private val productionD = 64
  private lazy val productionWorld: World = {
    val g = new Rnd.Gen(95)
    def vec(): Array[Double] = Array.tabulate(productionD) { i =>
      if (i % 7 == 3) 0.0 else if (i % 11 == 5) -0.0 else 0.3 * g.nextGaussian()
    }
    def zero(): Array[Double] = new Array[Double](productionD)
    val pos = IndexedSeq.tabulate(40) { p =>
      val e = if (p == 5) zero() else vec()
      (e, if (p == 9) zero() else e.map(_ + 0.1 * g.nextGaussian()))
    }
    val rPool = IndexedSeq.tabulate(60)(i => if (i % 20 == 0) zero() else vec())
    val sPool = IndexedSeq.tabulate(70)(i => if (i % 23 == 1) zero() else vec())
    val labeledNegs = IndexedSeq.tabulate(25)(i => (if (i == 2) zero() else vec(), if (i == 7) zero() else vec()))
    (pos, rPool, sPool, labeledNegs)
  }

  for ((objective, negMode) <- cases; n <- Seq(1, 3)) {
    test(s"training equals the per-record reference at d = 64 with zero records: $objective × $negMode, N=$n") {
      assertMatchesReference(productionWorld, productionD, objective, negMode, n, reps = 2)
    }
  }

  for ((objective, negMode) <- cases) {
    test(s"training never moves a masked column of U: $objective × $negMode") {
      val (pos, rPool, sPool, labeledNegs) = productionWorld
      val init = Committee.init(3, productionD, 0.75, seed = 96)
      val com = Committee.init(3, productionD, 0.75, seed = 96)
      Committee.train(com, Committee.TrainConfig(objective = objective, negMode = negMode, epochs = 3),
                      pos, rPool, sPool, labeledNegs, new Rnd.Gen(97))
      com.members.zip(init.members).foreach { case (m, m0) =>
        val masked = m.mask.indices.filter(m.mask(_) == 0.0)
        assert(masked.nonEmpty)
        for (j <- 0 until productionD; i <- masked) {
          val at = j * (productionD + 1) + i
          assert(java.lang.Double.doubleToRawLongBits(m.u(at)) ==
                 java.lang.Double.doubleToRawLongBits(m0.u(at)), s"U($j, $i) moved")
        }
        assert(!m.u.sameElements(m0.u), "training moved no weight at all")
      }
    }
  }

  /** Two members at d = 64 whose masks keep exactly `kept` columns, with
    * near-identity U.
    */
  private def keeping(kept: Int, seed: Long): Committee = {
    val g = new Rnd.Gen(seed)
    val members = (0 until 2).map { _ =>
      val order = g.permutation(productionD)
      val mask = Array.tabulate(productionD)(i => if (order(i) < kept) 1.0 else 0.0)
      val u = Array.tabulate(productionD * (productionD + 1)) { at =>
        val (j, i) = (at / (productionD + 1), at % (productionD + 1))
        (if (i == j) 1.0 else 0.0) + 0.05 * g.nextGaussian()
      }
      new Member(productionD, mask, u)
    }
    new Committee(members)
  }

  // The kernel adds four kept columns and four records per pass; these
  // masks and batch sizes leave every count short of a multiple of four
  // somewhere: 1, 2, 3, 5 and 63 kept columns, and a last step of one
  // positive (a step of four records, three per-positive logits and one
  // negative logit).
  for (kept <- Seq(1, 2, 3, 5, 63); nPos <- Seq(1, 17, 33); (objective, negMode) <- cases) {
    test(s"training equals the reference with $kept kept columns and $nPos positives: $objective × $negMode") {
      val (pos, rPool, sPool, labeledNegs) = productionWorld
      assertMatchesReference((pos.take(nPos), rPool, sPool, labeledNegs), objective, negMode, n = 2, reps = 1,
                             () => keeping(kept, seed = 98 + kept))
    }
  }

  test("one batch and one record equal the reference for record counts that are not a multiple of four") {
    val (pos, rPool, sPool, _) = productionWorld
    for (kept <- Seq(1, 3, 5, 63); (nPos, nNeg) <- Seq((1, 0), (1, 2), (3, 1), (2, 5), (7, 4))) {
      val m = keeping(kept, seed = 99).members(0)
      val what = s"kept $kept, $nPos positives, $nNeg negatives"
      val (loss, gU, _) = Committee.batchLossGrad(m, Contrastive, Array.emptyDoubleArray,
                                                  pos.take(nPos), rPool.take(nNeg), sPool.take(nNeg))
      val (refLoss, refGU) = ReferenceKernel.contrastiveLossGrad(m, pos.take(nPos), rPool.take(nNeg), sPool.take(nNeg))
      assert(loss == refLoss, what)
      assert(gU.sameElements(refGU), what)
      val head = Array.tabulate(3 * productionD + 1)(i => 0.01 * ((i % 7) - 3))
      val (cLoss, cGU, cHead) = Committee.batchLossGrad(m, Classification, head,
                                                        pos.take(nPos), rPool.take(nNeg), sPool.take(nNeg))
      val (refCLoss, refCGU, refCHead) =
        ReferenceKernel.classificationLossGrad(m, head, pos.take(nPos), rPool.take(nNeg), sPool.take(nNeg))
      assert(cLoss == refCLoss && cGU.sameElements(refCGU) && cHead.sameElements(refCHead), what)
      // one record through Member.encode
      val e = rPool(1)
      assert(m.encode(e).sameElements(ReferenceKernel.encode(m, e)), what)
    }
  }

  test("encode equals the reference at widths that are not a multiple of four") {
    val g = new Rnd.Gen(100)
    for (d <- Seq(1, 2, 3, 5, 7, 65)) {
      val com = Committee.init(3, d, 0.75, seed = 101L + d)
      com.members.foreach { m =>
        (1 to 5).foreach { _ =>
          val e = Array.fill(d)(g.nextGaussian())
          assert(m.encode(e).sameElements(ReferenceKernel.encode(m, e)), s"d=$d")
        }
      }
    }
  }
}
