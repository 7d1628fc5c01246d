package repro.core

import repro.index.EmbView
import repro.ml.{Adam, FdLibm, Mlp, Vec}
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
  *
  * The mask is 0/1, so `M_k ⊙ E(x)` only selects columns of U: [[forward]]
  * sums over the retained dimensions alone. A skipped term would have been
  * `u·0·e = ±0` (inputs are finite: `recordVec` and tanh make them so),
  * which leaves every sum as it is, up to the sign of an exact zero that no
  * use of the output can see: each use squares it, takes its absolute value
  * or multiplies it.
  */
final class Member(val d: Int, val mask: Array[Double], val u: Array[Double]) {
  require(mask.length == d && u.length == d * (d + 1), "member shape mismatch")
  require(mask.forall(v => v == 0.0 || v == 1.0), "member mask entries must be 0 or 1")

  /** The retained input dimensions (mask 1), ascending. */
  private[core] val kept: Array[Int] = (0 until d).filter(mask(_) == 1.0).toArray

  /** E_k(e): the one-record case of [[forward]]. */
  def encode(e: Array[Double]): Array[Double] = {
    val out = Array.ofDim[Double](1, d)
    forward(kept.map(i => Array(e(i))), 1, new Array[Double](1), out)
    out(0)
  }

  /** Encodes `n` records given by their retained inputs column by column,
    * `x(t)(r)` = input `kept(t)` of record r, into `out(r)`. For each row j
    * of U, all records' sums at once in `acc`, four kept columns per pass:
    * each sum is the bias plus its kept terms in ascending column order.
    * Training ([[MemberKernel]]) and projection ([[MemberView]]) both
    * encode through here.
    */
  private[core] def forward(x: Array[Array[Double]], n: Int, acc: Array[Double],
                            out: Array[Array[Double]]): Unit = {
    val kp = kept.length
    var j = 0
    while (j < d) {
      val off = j * (d + 1)
      java.util.Arrays.fill(acc, 0, n, u(off + d))
      var t = 0
      while (t + 4 <= kp) {
        val a0 = u(off + kept(t)); val a1 = u(off + kept(t + 1))
        val a2 = u(off + kept(t + 2)); val a3 = u(off + kept(t + 3))
        val c0 = x(t); val c1 = x(t + 1); val c2 = x(t + 2); val c3 = x(t + 3)
        var r = 0
        while (r < n) {
          acc(r) = (((acc(r) + a0 * c0(r)) + a1 * c1(r)) + a2 * c2(r)) + a3 * c3(r)
          r += 1
        }
        t += 4
      }
      while (t < kp) {
        val a = u(off + kept(t)); val col = x(t)
        var r = 0
        while (r < n) { acc(r) += a * col(r); r += 1 }
        t += 1
      }
      var r = 0
      while (r < n) { out(r)(j) = FdLibm.tanh(acc(r)); r += 1 }
      j += 1
    }
  }
}

/** One member's training step over its retained dimensions only (the
  * committee's hot kernel): buffers for the records of one step, holding
  * their retained inputs column by column and their outputs and output
  * gradients record by record, and the step's gradient `gU` in U's layout.
  *
  * The forward pass is [[Member.forward]]: each output is the bias plus the
  * kept terms in ascending column order. Each entry of `gU` sums
  * its records' terms from +0.0 in the order the records were added. Both
  * loops run over one whole row of sums at a time, each sum in its own slot
  * of `acc`, and add four terms to every slot per pass (four kept columns in
  * [[forward]], four records in [[backward]]) in the order a one-term pass
  * would: `acc = (((acc + t0) + t1) + t2) + t3`, so each slot is loaded and
  * stored once per four terms, no sum changes order, and the JIT vectorises
  * the pass. A count that is not a multiple of four ends with one-term
  * passes. The activation is [[FdLibm.tanh]], bit for bit the
  * `StrictMath.tanh` of the per-record arithmetic. The masked columns of `gU` are never written and stay +0.0, so
  * AdamW (weight decay 0) leaves those columns of U exactly as they are.
  */
private[core] final class MemberKernel(m: Member, capacity: Int) {
  val d: Int = m.d
  private val kept = m.kept
  private val kp = kept.length
  private val u = m.u

  /** dLoss/dU after [[backward]]. */
  val gU: Array[Double] = new Array[Double](u.length)
  /** Encoded records, one row of `d` per record, after [[forward]]. */
  val out: Array[Array[Double]] = Array.ofDim[Double](capacity, d)
  /** dLoss/dOut, one row per record; the loss adds into it, and
    * [[backward]] turns it into dLoss/d(pre-activation) in place.
    */
  val dOut: Array[Array[Double]] = Array.ofDim[Double](capacity, d)
  // x(t)(r): kept input t of record r; row kp is the bias input, all 1.0
  private val x = Array.ofDim[Double](kp + 1, capacity)
  java.util.Arrays.fill(x(kp), 1.0)
  private val acc = new Array[Double](math.max(capacity, d))
  private var n = 0

  // The contrastive loss's buffers, sized for the most logits a step of
  // `capacity` records can have (1 + 3 per negative pair): per logit, its
  // value, its exp and a row of 2(u − v).
  private val maxLogits = 1 + 3 * (capacity / 2)
  private[core] val logits = new Array[Double](maxLogits)
  private[core] val exps = new Array[Double](maxLogits)
  private[core] val twoDiff = Array.ofDim[Double](maxLogits, d)

  /** Empties the record buffer for a new step. */
  def clear(): Unit = {
    var r = 0
    while (r < n) { java.util.Arrays.fill(dOut(r), 0.0); r += 1 }
    n = 0
  }

  /** Appends a record (its retained dimensions); records are numbered in
    * the order they are added.
    */
  def add(e: Array[Double]): Unit = {
    var t = 0
    while (t < kp) { x(t)(n) = e(kept(t)); t += 1 }
    n += 1
  }

  /** Encodes every record into `out` ([[Member.forward]]). */
  def forward(): Unit = m.forward(x, n, acc, out)

  /** `gU` = `scale` · Σ_records dz ⊗ (x, 1), summed in record order, where
    * dz = dOut ⊙ (1 − out²): for each retained column of U, then the bias,
    * all rows' sums at once, four records per pass.
    */
  def backward(scale: Double): Unit = {
    var r = 0
    while (r < n) {
      val o = out(r); val g = dOut(r)
      var j = 0
      while (j < d) { g(j) = g(j) * (1.0 - o(j) * o(j)); j += 1 }
      r += 1
    }
    var t = 0
    while (t <= kp) {
      java.util.Arrays.fill(acc, 0, d, 0.0)
      val col = x(t)
      r = 0
      while (r + 4 <= n) {
        val e0 = col(r); val e1 = col(r + 1); val e2 = col(r + 2); val e3 = col(r + 3)
        val g0 = dOut(r); val g1 = dOut(r + 1); val g2 = dOut(r + 2); val g3 = dOut(r + 3)
        var j = 0
        while (j < d) {
          acc(j) = (((acc(j) + g0(j) * e0) + g1(j) * e1) + g2(j) * e2) + g3(j) * e3
          j += 1
        }
        r += 4
      }
      while (r < n) {
        val e = col(r); val dz = dOut(r)
        var j = 0
        while (j < d) { acc(j) += dz(j) * e; j += 1 }
        r += 1
      }
      val i = if (t < kp) kept(t) else d
      var j = 0
      while (j < d) { gU(j * (d + 1) + i) = acc(j) * scale; j += 1 }
      t += 1
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

  /** Train every member on duplicate pairs `pos` (embeddings are the frozen
    * matcher-adapted E_Θ(x)); negatives are drawn per `cfg.negMode` from the
    * full lists (`rPool`, `sPool`) or from the actively-labeled negatives.
    * Returns the mean loss of the final epoch and each member's
    * classification head (empty unless `cfg.objective` is Classification).
    *
    * The members train concurrently; the result does not depend on the
    * number of threads. Every draw from `rng` is taken up front as index
    * arrays, in the order a member-after-member loop would take them: per
    * step, the epoch's permutation (first step only), the shared negative
    * draw (paper §3.2.2), then each member's own shuffles of it. None of
    * them reads member state, so each member then runs its whole step
    * sequence, with its own optimiser, as an independent task. The loss is
    * summed afterwards in (step, member) order, so the result is
    * bit-identical to the sequential loop.
    *
    * Each member trains through a [[MemberKernel]]: every step loads its
    * records straight from those index arrays.
    */
  def train(c: Committee, cfg: TrainConfig,
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
      // a step holds at most 2 records per positive and 2 per negative
      val member = c.members(k)
      val kernel = new MemberKernel(member, 4 * cfg.batch)
      val adam = new Adam(member.u.length, Lr, weightDecay = 0.0)
      // only the classification objective keeps a per-member linear head on
      // [u; v; |u−v|]; it draws from its own generator
      val head =
        if (cfg.objective != Classification) Array.emptyDoubleArray
        else {
          val g = new Rnd.Gen(Rnd.combine(0xC1A55L, k))
          Array.fill(3 * d + 1)(0.01 * g.nextGaussian())
        }
      val gHead = new Array[Double](head.length)
      val headAdam = new Adam(head.length, Lr)
      val lastEpoch = new Array[Double](stepsPerEpoch) // per-step losses, final epoch
      var step = 0
      while (step < steps) {
        val order = orders(step / stepsPerEpoch)
        val off = (step % stepsPerEpoch) * cfg.batch
        val b = batchSize(step)
        val drawn = negA(step)
        val (negR, negS): (Int => Array[Double], Int => Array[Double]) = cfg.negMode match {
          case RandomNegs =>
            val sIdx = negB(step); val pr = shuffles(k)(2 * step); val ps = shuffles(k)(2 * step + 1)
            (i => rPool(drawn(pr(i))), i => sPool(sIdx(ps(i))))
          case LabeledNegs =>
            (i => labeledNegs(drawn(i))._1, i => labeledNegs(drawn(i))._2)
        }
        val loss = lossGrad(kernel, cfg.objective, head, gHead,
                            b, p => pos(order(off + p))._1, p => pos(order(off + p))._2, b, negR, negS)
        if (cfg.objective == Classification) headAdam.step(head, gHead)
        adam.step(member.u, kernel.gU)
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

  /** One mini-batch of `objective` on kernel `k`: positives p < `nPos` are
    * (`posR(p)`, `posS(p)`), negatives i < `nNeg` are (`negR(i)`,
    * `negS(i)`). Loads the records in the order their gradients are summed,
    * encodes them, and leaves the mean dLoss/dU in `k.gU` (and, for
    * Classification, the mean dLoss/dhead in `gHead`). Returns the mean
    * loss. The training loop and [[batchLossGrad]] both run through here.
    */
  private def lossGrad(k: MemberKernel, objective: Objective,
                       head: Array[Double], gHead: Array[Double],
                       nPos: Int, posR: Int => Array[Double], posS: Int => Array[Double],
                       nNeg: Int, negR: Int => Array[Double], negS: Int => Array[Double]): Double = {
    k.clear()
    var p = 0
    objective match {
      case Triplet => // per positive: r, s, and one negative r and s
        while (p < nPos) {
          k.add(posR(p)); k.add(posS(p)); k.add(negR(p % nNeg)); k.add(negS(p % nNeg))
          p += 1
        }
      case Contrastive | Classification => // every positive pair, then every negative pair
        while (p < nPos) { k.add(posR(p)); k.add(posS(p)); p += 1 }
        var i = 0
        while (i < nNeg) { k.add(negR(i)); k.add(negS(i)); i += 1 }
    }
    k.forward()
    objective match {
      case Contrastive => contrastive(k, nPos, nNeg)
      case Triplet => triplet(k, nPos)
      case Classification => classification(k, head, gHead, nPos, nNeg)
    }
  }

  /** Contrastive loss (paper Eq. 8) over records rp_p = 2p, sp_p = 2p + 1,
    * rn_i = 2b + 2i, sn_i = 2b + 2i + 1; similarity is −‖u − v‖².
    *
    * Per positive p the logits are sim(rp, sp), then for each i:
    * sim(rn_i, sp), sim(rp, sn_i), sim(rn_i, sn_i). dsim/du = −2(u − v), so
    * each pair's 2(u − v) is kept as a row of the kernel's `twoDiff` and the
    * gradient steps read it back: `du −= w·2(u − v)` is `du += w·(−2(u − v))`
    * exactly. The (rn_i, sn_i) rows and logits do not depend on p and are
    * computed once per step. Four logits' sums run in one pass over the
    * dimensions, each its own serial sum.
    */
  private def contrastive(k: MemberKernel, b: Int, nb: Int): Double = {
    val out = k.out; val g = k.dOut
    val twoDiff = k.twoDiff; val logits = k.logits; val exps = k.exps
    val nLogit = 1 + 3 * nb
    // the records of logit l's pair (u, v) under positive p
    def left(l: Int, p: Int): Array[Double] =
      if (l == 0 || l % 3 == 2) out(2 * p) else out(2 * b + 2 * ((l - 1) / 3))
    def right(l: Int, p: Int): Array[Double] =
      if (l == 0 || l % 3 == 1) out(2 * p + 1) else out(2 * b + 2 * ((l - 1) / 3) + 1)
    // logits(l) = −‖u − v‖² and row l of twoDiff = 2(u − v) for logit l's
    // pair, for four logits in one pass
    def sim4(p: Int, l0: Int, l1: Int, l2: Int, l3: Int): Unit = {
      val u0 = left(l0, p); val v0 = right(l0, p); val w0 = twoDiff(l0)
      val u1 = left(l1, p); val v1 = right(l1, p); val w1 = twoDiff(l1)
      val u2 = left(l2, p); val v2 = right(l2, p); val w2 = twoDiff(l2)
      val u3 = left(l3, p); val v3 = right(l3, p); val w3 = twoDiff(l3)
      var s0, s1, s2, s3 = 0.0
      var t = 0
      while (t < k.d) {
        val e0 = u0(t) - v0(t); s0 += e0 * e0; w0(t) = 2.0 * e0
        val e1 = u1(t) - v1(t); s1 += e1 * e1; w1(t) = 2.0 * e1
        val e2 = u2(t) - v2(t); s2 += e2 * e2; w2(t) = 2.0 * e2
        val e3 = u3(t) - v3(t); s3 += e3 * e3; w3(t) = 2.0 * e3
        t += 1
      }
      logits(l0) = -s0; logits(l1) = -s1; logits(l2) = -s2; logits(l3) = -s3
    }
    def sim(p: Int, l: Int): Unit = {
      val u = left(l, p); val v = right(l, p); val w = twoDiff(l)
      var s = 0.0; var t = 0
      while (t < k.d) { val e = u(t) - v(t); s += e * e; w(t) = 2.0 * e; t += 1 }
      logits(l) = -s
    }
    // the q-th logit that depends on p: 0, then 1 + 3i and 2 + 3i for each i
    def perPos(q: Int): Int = if (q == 0) 0 else 3 * ((q - 1) / 2) + 1 + (q - 1) % 2
    val nPer = 1 + 2 * nb
    // dst += Σ_q sgn·w(l_q)·2(u − v)_{l_q} over the n logits l_0 = first,
    // l_q = next + stride·(q − 1), in that order: four, then two, then one
    // logit per pass over the dimensions. sgn·w is exact and x + (−y) is
    // x − y, so sgn = −1.0 gives `dst −= w·2(u − v)` bit for bit.
    def addRows(dst: Array[Double], sgn: Double, n: Int, first: Int, next: Int, stride: Int): Unit = {
      def at(q: Int): Int = if (q == 0) first else next + stride * (q - 1)
      var q = 0
      while (q + 4 <= n) {
        val l0 = at(q); val l1 = at(q + 1); val l2 = at(q + 2); val l3 = at(q + 3)
        val a0 = sgn * exps(l0); val a1 = sgn * exps(l1); val a2 = sgn * exps(l2); val a3 = sgn * exps(l3)
        val r0 = twoDiff(l0); val r1 = twoDiff(l1); val r2 = twoDiff(l2); val r3 = twoDiff(l3)
        var t = 0
        while (t < k.d) {
          dst(t) = (((dst(t) + a0 * r0(t)) + a1 * r1(t)) + a2 * r2(t)) + a3 * r3(t)
          t += 1
        }
        q += 4
      }
      if (q + 2 <= n) {
        val l0 = at(q); val l1 = at(q + 1)
        val a0 = sgn * exps(l0); val a1 = sgn * exps(l1)
        val r0 = twoDiff(l0); val r1 = twoDiff(l1)
        var t = 0
        while (t < k.d) { dst(t) = (dst(t) + a0 * r0(t)) + a1 * r1(t); t += 1 }
        q += 2
      }
      if (q < n) {
        val l = at(q); val a = sgn * exps(l); val row = twoDiff(l)
        var t = 0
        while (t < k.d) { dst(t) += a * row(t); t += 1 }
      }
    }
    var i = 0
    while (i + 4 <= nb) { sim4(0, 3 + 3 * i, 6 + 3 * i, 9 + 3 * i, 12 + 3 * i); i += 4 }
    while (i < nb) { sim(0, 3 + 3 * i); i += 1 }
    var total = 0.0
    var p = 0
    while (p < b) {
      var q = 0
      while (q + 4 <= nPer) { sim4(p, perPos(q), perPos(q + 1), perPos(q + 2), perPos(q + 3)); q += 4 }
      while (q < nPer) { sim(p, perPos(q)); q += 1 }
      var mx = logits(0)
      var l = 1
      while (l < nLogit) { if (logits(l) > mx) mx = logits(l); l += 1 }
      var sum = 0.0
      l = 0
      while (l < nLogit) { exps(l) = math.exp(logits(l) - mx); sum += exps(l); l += 1 }
      total += -(logits(0) - mx) + math.log(sum)
      // dL/dlogit_l = softmax_l − [l == 0], kept in exps; logit l moves its
      // pair (u, v) by −w·2(u − v) and +w·2(u − v). Each record takes its
      // terms in logit order: rp from logits 0 and 2 + 3i, sp from 0 and
      // 1 + 3i, rn_i from 1 + 3i and 3 + 3i, sn_i from 2 + 3i and 3 + 3i.
      exps(0) = exps(0) / sum - 1.0
      l = 1
      while (l < nLogit) { exps(l) = exps(l) / sum; l += 1 }
      addRows(g(2 * p), -1.0, 1 + nb, first = 0, next = 2, stride = 3)
      addRows(g(2 * p + 1), 1.0, 1 + nb, first = 0, next = 1, stride = 3)
      i = 0
      while (i < nb) {
        addRows(g(2 * b + 2 * i), -1.0, 2, first = 1 + 3 * i, next = 3 + 3 * i, stride = 0)
        addRows(g(2 * b + 2 * i + 1), 1.0, 2, first = 2 + 3 * i, next = 3 + 3 * i, stride = 0)
        i += 1
      }
      p += 1
    }
    k.backward(1.0 / b)
    total / b
  }

  /** Triplet loss (Table 5 ablation; euclidean distance, one negative per
    * anchor, no mining) over records rp = 4p, sp = 4p + 1, rn = 4p + 2,
    * sn = 4p + 3, with margin [[Margin]].
    */
  private def triplet(k: MemberKernel, b: Int): Double = {
    val out = k.out; val g = k.dOut
    def dist(u: Array[Double], v: Array[Double]): Double = math.sqrt(Vec.distSq(u, v))
    def addDistGrad(wt: Double, u: Array[Double], v: Array[Double],
                    du: Array[Double], dv: Array[Double]): Unit = {
      val dd = math.max(dist(u, v), 1e-9)
      var t = 0
      while (t < u.length) {
        val gmag = wt * (u(t) - v(t)) / dd
        du(t) += gmag; dv(t) -= gmag
        t += 1
      }
    }
    var total = 0.0
    var p = 0
    while (p < b) {
      val rp = out(4 * p); val sp = out(4 * p + 1); val rn = out(4 * p + 2); val sn = out(4 * p + 3)
      val dRp = g(4 * p); val dSp = g(4 * p + 1); val dRn = g(4 * p + 2); val dSn = g(4 * p + 3)
      val dPos = dist(rp, sp)
      val t1 = dPos - dist(rp, sn) + Margin
      if (t1 > 0) {
        total += t1
        addDistGrad(1.0, rp, sp, dRp, dSp)
        addDistGrad(-1.0, rp, sn, dRp, dSn)
      }
      val t2 = dPos - dist(sp, rn) + Margin
      if (t2 > 0) {
        total += t2
        addDistGrad(1.0, sp, rp, dSp, dRp)
        addDistGrad(-1.0, sp, rn, dSp, dRn)
      }
      p += 1
    }
    k.backward(1.0 / b)
    total / b
  }

  /** SentenceBERT-style classification (Table 5 ablation and the
    * SentenceBERT baseline): linear head on [u; v; |u−v|], cross-entropy,
    * over examples u = 2e, v = 2e + 1; the first `nPos` are duplicates.
    */
  private def classification(k: MemberKernel, head: Array[Double], gHead: Array[Double],
                             nPos: Int, nNeg: Int): Double = {
    val d = k.d
    java.util.Arrays.fill(gHead, 0.0)
    var total = 0.0
    val n = nPos + nNeg
    var e = 0
    while (e < n) {
      val y = if (e < nPos) 1.0 else 0.0
      val u = k.out(2 * e); val v = k.out(2 * e + 1)
      // score over the features [u; v; |u−v|], in that order
      var score = head(3 * d)
      var i = 0
      while (i < d) { score += head(i) * u(i); i += 1 }
      i = 0
      while (i < d) { score += head(d + i) * v(i); i += 1 }
      i = 0
      while (i < d) { score += head(2 * d + i) * math.abs(u(i) - v(i)); i += 1 }
      val prob = Mlp.sigmoid(score)
      total += Mlp.bceFromLogit(score, y)
      val dScore = prob - y
      i = 0
      while (i < d) { gHead(i) += dScore * u(i); i += 1 }
      i = 0
      while (i < d) { gHead(d + i) += dScore * v(i); i += 1 }
      i = 0
      while (i < d) { gHead(2 * d + i) += dScore * math.abs(u(i) - v(i)); i += 1 }
      gHead(3 * d) += dScore
      val du = k.dOut(2 * e); val dv = k.dOut(2 * e + 1)
      i = 0
      while (i < d) {
        val sgn = math.signum(u(i) - v(i))
        du(i) = dScore * (head(i) + head(2 * d + i) * sgn)
        dv(i) = dScore * (head(d + i) - head(2 * d + i) * sgn)
        i += 1
      }
      e += 1
    }
    val inv = 1.0 / math.max(1, n)
    Vec.scaleI(gHead, inv)
    k.backward(inv)
    total / math.max(1, n)
  }

  /** One batch given as sequences, through [[lossGrad]] on a fresh kernel:
    * (mean loss, dLoss/dU, dLoss/dhead). `head` is read by Classification
    * only; a Triplet positive p takes the negatives at p mod their count.
    * Package-private so the test suite can finite-difference check the
    * training step's gradients (Eqs. 6–8).
    */
  private[core] def batchLossGrad(m: Member, objective: Objective, head: Array[Double],
                                  pos: IndexedSeq[(Array[Double], Array[Double])],
                                  negR: IndexedSeq[Array[Double]],
                                  negS: IndexedSeq[Array[Double]]): (Double, Array[Double], Array[Double]) = {
    require(negR.length == negS.length, "negatives come in (r, s) pairs")
    // room for any objective: 2 records per positive, and 2 per negative or per positive
    val k = new MemberKernel(m, 2 * pos.length + 2 * math.max(pos.length, negR.length))
    val gHead = new Array[Double](head.length)
    val loss = lossGrad(k, objective, head, gHead,
                        pos.length, pos(_)._1, pos(_)._2, negR.length, negR, negS)
    (loss, k.gU, gHead)
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

/** Committee-member embedding E_k(g ⊙ E(x)) — DIAL's IBC and SentenceBERT.
  * One record or a batch, both through [[Member.forward]]; a batch takes
  * only the retained columns of g ⊙ E(x), one column of all records at a
  * time.
  */
final class MemberView(g: Array[Double], member: Member) extends EmbView {
  override def apply(base: Array[Double]): Array[Double] = member.encode(Vec.had(g, base))

  override def project(bases: Array[Array[Double]]): Array[Array[Double]] = {
    val n = bases.length
    val x = member.kept.map { i =>
      val gi = g(i); val col = new Array[Double](n)
      var r = 0
      while (r < n) { col(r) = gi * bases(r)(i); r += 1 }
      col
    }
    val out = Array.ofDim[Double](n, member.d)
    member.forward(x, n, new Array[Double](n), out)
    out
  }
}
