package repro.core

import repro.index.EmbView
import repro.ml.{Adam, Mlp, Vec}
import repro.util.{Par, Rnd}

/** Blocker training objective (paper §3.2.3 and Table 5 ablation). */
sealed trait Objective
case object Contrastive extends Objective
case object Triplet extends Objective
case object Classification extends Objective

/** Blocker training-data choice (paper §3.2.2 and Table 4 ablation). */
sealed trait NegMode
case object RandomNegs extends NegMode
case object LabeledNegs extends NegMode

/** One committee member (paper Eq. 7): a fixed random mask M_k (fraction `p`
  * of dimensions retained) followed by a trainable affine map and tanh:
  * `E_k(x) = tanh(U_k(M_k ⊙ E(x), 1))`. Row-major U: row j spans
  * `[j*(d+1), (j+1)*(d+1))`, last column is the bias.
  */
final class Member(val d: Int, val mask: Array[Double], val u: Array[Double]) {
  require(mask.length == d && u.length == d * (d + 1), "member shape mismatch")

  def encode(e: Array[Double]): Array[Double] = {
    val out = new Array[Double](d)
    var j = 0
    while (j < d) {
      val off = j * (d + 1)
      var s = u(off + d)
      var i = 0
      while (i < d) { s += u(off + i) * mask(i) * e(i); i += 1 }
      out(j) = math.tanh(s)
      j += 1
    }
    out
  }

  /** Accumulate dL/dU into `gU` given the input `e`, the forward output
    * `out = encode(e)` and the output gradient `dOut`.
    */
  def backprop(e: Array[Double], out: Array[Double], dOut: Array[Double],
               gU: Array[Double]): Unit = {
    var j = 0
    while (j < d) {
      val dz = dOut(j) * (1.0 - out(j) * out(j))
      val off = j * (d + 1)
      var i = 0
      while (i < d) { gU(off + i) += dz * mask(i) * e(i); i += 1 }
      gU(off + d) += dz
      j += 1
    }
  }
}

/** The committee of N embedding heads plus their training procedures.
  * All three objectives and both negative-sampling modes of the paper's
  * ablations are implemented here; DIAL's default is (Contrastive, RandomNegs).
  */
final class Committee(val members: IndexedSeq[Member]) {
  def n: Int = members.length
}

object Committee {

  def init(n: Int, d: Int, maskP: Double, seed: Long): Committee = {
    val members = (0 until n).map { k =>
      val g = new Rnd.Gen(Rnd.combine(seed, 1000 + k))
      val mask = Array.fill(d)(if (g.nextBoolean(maskP)) 1.0 else 0.0)
      if (!mask.contains(1.0)) mask(g.nextInt(d)) = 1.0 // never mask everything
      // near-identity init: start close to the adapted embedding itself
      val u = new Array[Double](d * (d + 1))
      var j = 0
      while (j < d) {
        var i = 0
        while (i < d) {
          u(j * (d + 1) + i) =
            (if (i == j) 1.0 else 0.0) + 0.05 * g.nextGaussian() / math.sqrt(d.toDouble)
          i += 1
        }
        j += 1
      }
      new Member(d, mask, u)
    }
    new Committee(members.toIndexedSeq)
  }

  /** Configuration for blocker training (paper: 200 epochs, batch 16, AdamW). */
  final case class TrainConfig(
      objective: Objective = Contrastive,
      negMode: NegMode = RandomNegs,
      epochs: Int = 120,
      batch: Int = 16,
  )

  /** AdamW learning rate of the members and the classification heads. */
  private[core] val Lr = 0.01
  /** Triplet-loss margin (Table 5 ablation). */
  private[core] val Margin = 1.0

  private def simNegSq(a: Array[Double], b: Array[Double]): Double = -Vec.distSq(a, b)

  /** Train every member on duplicate pairs `pos` (embeddings are the frozen
    * matcher-adapted E_Θ(x)); negatives are drawn per `cfg.negMode` from the
    * full lists (`rPool`, `sPool`) or from the actively-labeled negatives.
    * Returns the mean loss of the final epoch (for tests/monitoring).
    *
    * The members train concurrently (see [[trainWithHeads]]); the result does
    * not depend on the number of threads.
    */
  def train(c: Committee, cfg: TrainConfig,
            pos: IndexedSeq[(Array[Double], Array[Double])],
            rPool: IndexedSeq[Array[Double]], sPool: IndexedSeq[Array[Double]],
            labeledNegs: IndexedSeq[(Array[Double], Array[Double])],
            rng: Rnd.Gen): Double =
    trainWithHeads(c, cfg, pos, rPool, sPool, labeledNegs, rng)._1

  /** [[train]], also returning each member's classification head.
    *
    * Every draw from `rng` is taken up front as index arrays, in the order a
    * member-after-member loop would take them: per step, the epoch's
    * permutation (first step only), the shared negative draw (paper §3.2.2),
    * then each member's own shuffles of it. None of them reads member state,
    * so each member then runs its whole step sequence, with its own optimiser,
    * as an independent task. The loss is summed afterwards in (step, member)
    * order, so the result is bit-identical to the sequential loop.
    */
  private[core] def trainWithHeads(c: Committee, cfg: TrainConfig,
            pos: IndexedSeq[(Array[Double], Array[Double])],
            rPool: IndexedSeq[Array[Double]], sPool: IndexedSeq[Array[Double]],
            labeledNegs: IndexedSeq[(Array[Double], Array[Double])],
            rng: Rnd.Gen): (Double, IndexedSeq[Array[Double]]) = {
    require(pos.nonEmpty, "cannot train blocker with no positives")
    if (cfg.negMode == LabeledNegs) require(labeledNegs.nonEmpty, "no labeled negatives")
    val d = c.members.head.d
    val stepsPerEpoch = (pos.length + cfg.batch - 1) / cfg.batch
    val steps = cfg.epochs * stepsPerEpoch
    def batchSize(step: Int): Int = {
      val off = (step % stepsPerEpoch) * cfg.batch
      math.min(off + cfg.batch, pos.length) - off
    }

    val orders = new Array[Array[Int]](cfg.epochs)
    val negA = new Array[Array[Int]](steps) // rPool (RandomNegs) or labeledNegs indices
    val negB = new Array[Array[Int]](steps) // sPool indices (RandomNegs)
    // each member shuffles the negative records independently — except in
    // LabeledNegs mode, where the hard pairs stay intact
    val shuffles = Array.ofDim[Array[Int]](c.n, 2 * steps)
    var step = 0
    while (step < steps) {
      if (step % stepsPerEpoch == 0) orders(step / stepsPerEpoch) = rng.permutation(pos.length)
      val b = batchSize(step)
      cfg.negMode match {
        case RandomNegs =>
          negA(step) = Array.fill(b)(rng.nextInt(rPool.length))
          negB(step) = Array.fill(b)(rng.nextInt(sPool.length))
          var k = 0
          while (k < c.n) {
            shuffles(k)(2 * step) = rng.permutation(b)
            shuffles(k)(2 * step + 1) = rng.permutation(b)
            k += 1
          }
        case LabeledNegs =>
          negA(step) = Array.fill(b)(rng.nextInt(labeledNegs.length))
      }
      step += 1
    }

    val perMember = Par.tabulate(c.n) { k =>
      val member = c.members(k)
      val adam = new Adam(member.u.length, Lr, weightDecay = 0.0)
      // classification objective keeps a per-member linear head on [u; v; |u−v|]
      val head = {
        val g = new Rnd.Gen(Rnd.combine(0xC1A55L, k))
        Array.fill(3 * d + 1)(0.01 * g.nextGaussian())
      }
      val headAdam = new Adam(head.length, Lr)
      val lastEpoch = new Array[Double](stepsPerEpoch) // per-step losses, final epoch
      var step = 0
      while (step < steps) {
        val order = orders(step / stepsPerEpoch)
        val off = (step % stepsPerEpoch) * cfg.batch
        val batchPos = (off until off + batchSize(step)).map(i => pos(order(i)))
        val (nr, ns) = cfg.negMode match {
          case RandomNegs =>
            val rIdx = negA(step); val sIdx = negB(step)
            (shuffles(k)(2 * step).toIndexedSeq.map(j => rPool(rIdx(j))),
             shuffles(k)(2 * step + 1).toIndexedSeq.map(j => sPool(sIdx(j))))
          case LabeledNegs =>
            val drawn = negA(step).toIndexedSeq.map(labeledNegs)
            (drawn.map(_._1), drawn.map(_._2))
        }
        val (loss, gU) = cfg.objective match {
          case Contrastive => contrastiveLossGrad(member, batchPos, nr, ns)
          case Triplet => tripletLossGrad(member, batchPos, nr, ns, Margin)
          case Classification =>
            val (loss, gU, gHead) = classificationLossGrad(member, head, batchPos, nr, ns)
            headAdam.step(head, gHead)
            (loss, gU)
        }
        adam.step(member.u, gU)
        lastEpoch(step % stepsPerEpoch) = loss
        step += 1
      }
      (lastEpoch, head)
    }

    var epochLoss = 0.0
    step = 0
    while (step < stepsPerEpoch) {
      var k = 0
      while (k < c.n) { epochLoss += perMember(k)._1(step); k += 1 }
      step += 1
    }
    (epochLoss / math.max(1, stepsPerEpoch * c.n), perMember.map(_._2))
  }

  /** Mean loss and dLoss/dU of one contrastive mini-batch (paper Eq. 8).
    * Package-private so the test suite can finite-difference check it.
    */
  private[core] def contrastiveLossGrad(m: Member,
                              pos: IndexedSeq[(Array[Double], Array[Double])],
                              negR: IndexedSeq[Array[Double]],
                              negS: IndexedSeq[Array[Double]]): (Double, Array[Double]) = {
    val b = pos.length
    val nb = negR.length
    // forward all distinct records once
    val rp = pos.map(p => m.encode(p._1))
    val sp = pos.map(p => m.encode(p._2))
    val rn = negR.map(m.encode)
    val sn = negS.map(m.encode)
    val dRp = Array.fill(b)(Vec.zeros(m.d))
    val dSp = Array.fill(b)(Vec.zeros(m.d))
    val dRn = Array.fill(nb)(Vec.zeros(m.d))
    val dSn = Array.fill(nb)(Vec.zeros(m.d))

    var total = 0.0
    var p = 0
    while (p < b) {
      // logits: [sim(rp,sp)] ++ for i: sim(rn_i,sp), sim(rp,sn_i), sim(rn_i,sn_i)
      val nLogit = 1 + 3 * nb
      val logits = new Array[Double](nLogit)
      logits(0) = simNegSq(rp(p), sp(p))
      var i = 0
      while (i < nb) {
        logits(1 + 3 * i) = simNegSq(rn(i), sp(p))
        logits(2 + 3 * i) = simNegSq(rp(p), sn(i))
        logits(3 + 3 * i) = simNegSq(rn(i), sn(i))
        i += 1
      }
      val mx = logits.max
      val exps = logits.map(z => math.exp(z - mx))
      val sum = exps.sum
      total += -(logits(0) - mx) + math.log(sum)
      // dL/dlogit_j = softmax_j − [j == 0]; dsim(u,v)/du = −2(u−v)
      def addSimGrad(w: Double, u: Array[Double], v: Array[Double],
                     du: Array[Double], dv: Array[Double]): Unit = {
        var t = 0
        while (t < m.d) {
          val diff = u(t) - v(t)
          du(t) += w * (-2.0 * diff)
          dv(t) += w * (2.0 * diff)
          t += 1
        }
      }
      val w0 = exps(0) / sum - 1.0
      addSimGrad(w0, rp(p), sp(p), dRp(p), dSp(p))
      i = 0
      while (i < nb) {
        addSimGrad(exps(1 + 3 * i) / sum, rn(i), sp(p), dRn(i), dSp(p))
        addSimGrad(exps(2 + 3 * i) / sum, rp(p), sn(i), dRp(p), dSn(i))
        addSimGrad(exps(3 + 3 * i) / sum, rn(i), sn(i), dRn(i), dSn(i))
        i += 1
      }
      p += 1
    }
    val gU = Vec.zeros(m.u.length)
    var i = 0
    while (i < b) {
      m.backprop(pos(i)._1, rp(i), dRp(i), gU)
      m.backprop(pos(i)._2, sp(i), dSp(i), gU)
      i += 1
    }
    i = 0
    while (i < nb) {
      m.backprop(negR(i), rn(i), dRn(i), gU)
      m.backprop(negS(i), sn(i), dSn(i), gU)
      i += 1
    }
    Vec.scaleI(gU, 1.0 / b)
    (total / b, gU)
  }

  /** Mean loss and dLoss/dU of one triplet mini-batch (Table 5 ablation;
    * euclidean distance, margin 1, one negative per anchor, no mining).
    */
  private[core] def tripletLossGrad(m: Member,
                          pos: IndexedSeq[(Array[Double], Array[Double])],
                          negR: IndexedSeq[Array[Double]],
                          negS: IndexedSeq[Array[Double]],
                          margin: Double): (Double, Array[Double]) = {
    val b = pos.length
    val gU = Vec.zeros(m.u.length)
    var total = 0.0
    var p = 0
    while (p < b) {
      val erp = pos(p)._1; val esp = pos(p)._2
      val ern = negR(p % negR.length); val esn = negS(p % negS.length)
      val rp = m.encode(erp); val sp = m.encode(esp)
      val rn = m.encode(ern); val sn = m.encode(esn)
      val dRp = Vec.zeros(m.d); val dSp = Vec.zeros(m.d)
      val dRn = Vec.zeros(m.d); val dSn = Vec.zeros(m.d)
      def dist(u: Array[Double], v: Array[Double]): Double = math.sqrt(Vec.distSq(u, v))
      def addDistGrad(w: Double, u: Array[Double], v: Array[Double],
                      du: Array[Double], dv: Array[Double]): Unit = {
        val dd = math.max(dist(u, v), 1e-9)
        var t = 0
        while (t < m.d) {
          val gmag = w * (u(t) - v(t)) / dd
          du(t) += gmag; dv(t) -= gmag
          t += 1
        }
      }
      val dPos = dist(rp, sp)
      val t1 = dPos - dist(rp, sn) + margin
      if (t1 > 0) {
        total += t1
        addDistGrad(1.0, rp, sp, dRp, dSp)
        addDistGrad(-1.0, rp, sn, dRp, dSn)
      }
      val t2 = dPos - dist(sp, rn) + margin
      if (t2 > 0) {
        total += t2
        addDistGrad(1.0, sp, rp, dSp, dRp)
        addDistGrad(-1.0, sp, rn, dSp, dRn)
      }
      m.backprop(erp, rp, dRp, gU)
      m.backprop(esp, sp, dSp, gU)
      m.backprop(ern, rn, dRn, gU)
      m.backprop(esn, sn, dSn, gU)
      p += 1
    }
    Vec.scaleI(gU, 1.0 / b)
    (total / b, gU)
  }

  /** Mean loss and gradients of one SentenceBERT-style classification batch
    * (Table 5 ablation and the SentenceBERT baseline): linear head on
    * [u; v; |u−v|], cross-entropy.
    */
  private[core] def classificationLossGrad(m: Member, head: Array[Double],
                                 pos: IndexedSeq[(Array[Double], Array[Double])],
                                 negR: IndexedSeq[Array[Double]],
                                 negS: IndexedSeq[Array[Double]]): (Double, Array[Double], Array[Double]) = {
    val d = m.d
    val gU = Vec.zeros(m.u.length)
    val gHead = Vec.zeros(head.length)
    var total = 0.0
    var n = 0

    def example(er: Array[Double], es: Array[Double], y: Double): Unit = {
      val u = m.encode(er); val v = m.encode(es)
      val feat = new Array[Double](3 * d)
      var i = 0
      while (i < d) {
        feat(i) = u(i); feat(d + i) = v(i); feat(2 * d + i) = math.abs(u(i) - v(i))
        i += 1
      }
      var score = head(3 * d)
      i = 0
      while (i < 3 * d) { score += head(i) * feat(i); i += 1 }
      val prob = Mlp.sigmoid(score)
      total += Mlp.bceFromLogit(score, y)
      val dScore = prob - y
      i = 0
      while (i < 3 * d) { gHead(i) += dScore * feat(i); i += 1 }
      gHead(3 * d) += dScore
      val du = Vec.zeros(d); val dv = Vec.zeros(d)
      i = 0
      while (i < d) {
        val sgn = math.signum(u(i) - v(i))
        du(i) = dScore * (head(i) + head(2 * d + i) * sgn)
        dv(i) = dScore * (head(d + i) - head(2 * d + i) * sgn)
        i += 1
      }
      m.backprop(er, u, du, gU)
      m.backprop(es, v, dv, gU)
      n += 1
    }

    pos.foreach { case (er, es) => example(er, es, 1.0) }
    var i = 0
    while (i < negR.length) { example(negR(i), negS(i), 0.0); i += 1 }
    val inv = 1.0 / math.max(1, n)
    Vec.scaleI(gU, inv); Vec.scaleI(gHead, inv)
    (total / math.max(1, n), gU, gHead)
  }
}

/** Views over the shared base embedding, used for indexing/retrieval. */

/** Pretrained embedding as-is — the PairedFixed baseline. */
final class PlainView extends EmbView {
  override def apply(base: Array[Double]): Array[Double] = base
}

/** Matcher-adapted embedding g ⊙ E(x) — the PairedAdapt baseline. */
final class ScaleView(g: Array[Double]) extends EmbView {
  override def apply(base: Array[Double]): Array[Double] = Vec.had(g, base)
}

/** Committee-member embedding E_k(g ⊙ E(x)) — DIAL's IBC and SentenceBERT. */
final class MemberView(g: Array[Double], member: Member) extends EmbView {
  override def apply(base: Array[Double]): Array[Double] =
    member.encode(Vec.had(g, base))
}
