package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.Adam
import repro.util.Rnd

/** Concurrent committee training must equal the member-after-member loop
  * bit for bit: every member's U, every classification head and the
  * returned loss, compared with exact `==` on doubles.
  */
class CommitteeTrainSpec extends AnyFunSuite {
  private val d = 8

  /** The sequential training loop, kept as the reference: one shared `rng`,
    * members stepped one after another inside each mini-batch step.
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
              val (l, gU) = Committee.contrastiveLossGrad(m, batchPos, nr, ns)
              adams(k).step(m.u, gU); l
            case Triplet =>
              val (l, gU) = Committee.tripletLossGrad(m, batchPos, nr, ns, Committee.Margin)
              adams(k).step(m.u, gU); l
            case Classification =>
              val (l, gU, gHead) = Committee.classificationLossGrad(m, heads(k), batchPos, nr, ns)
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

  // 40 positives: two full batches of 16 and a ragged one of 8 per epoch
  private val world = {
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

  for ((objective, negMode) <- cases; n <- Seq(1, 3, 10)) {
    test(s"concurrent training is bit-identical to the sequential loop: $objective × $negMode, N=$n") {
      val (pos, rPool, sPool, labeledNegs) = world
      val cfg = Committee.TrainConfig(objective = objective, negMode = negMode, epochs = 4)
      val ref = Committee.init(n, d, 0.75, seed = 91)
      val (refLoss, refHeads) =
        sequentialTrain(ref, cfg, pos, rPool, sPool, labeledNegs, new Rnd.Gen(92))
      (1 to 5).foreach { rep =>
        val com = Committee.init(n, d, 0.75, seed = 91)
        val (loss, heads) =
          Committee.trainWithHeads(com, cfg, pos, rPool, sPool, labeledNegs, new Rnd.Gen(92))
        assert(loss == refLoss, s"repetition $rep: loss $loss vs $refLoss")
        (0 until n).foreach { k =>
          assert(com.members(k).u.sameElements(ref.members(k).u), s"repetition $rep: member $k U")
          assert(heads(k).sameElements(refHeads(k)), s"repetition $rep: member $k head")
        }
      }
    }
  }

  test("train returns the loss of trainWithHeads and consumes the same draws") {
    val (pos, rPool, sPool, labeledNegs) = world
    val cfg = Committee.TrainConfig(epochs = 2)
    val rngA = new Rnd.Gen(93); val rngB = new Rnd.Gen(93)
    val a = Committee.train(Committee.init(3, d, 0.75, seed = 94), cfg,
                            pos, rPool, sPool, labeledNegs, rngA)
    val b = sequentialTrain(Committee.init(3, d, 0.75, seed = 94), cfg,
                            pos, rPool, sPool, labeledNegs, rngB)._1
    assert(a == b)
    assert(rngA.nextLong() == rngB.nextLong(), "rng left in a different state")
  }
}
