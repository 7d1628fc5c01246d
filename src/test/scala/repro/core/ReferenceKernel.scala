package repro.core

import repro.index.EmbView
import repro.ml.{Mlp, Vec}

/** The committee member's per-record arithmetic as it stood before training
  * moved to the batched kernel over retained columns, kept as the exact
  * reference: `encode` and `backprop` multiply every term by the mask, and
  * each loss encodes and backpropagates its records one at a time, in the
  * order the gradient was accumulated. `CommitteeTrainSpec` trains with
  * these bodies and `BlockerSpec` retrieves through [[ReferenceMemberView]];
  * both compare the program's results with exact `==`.
  */
object ReferenceKernel {
  private def simNegSq(a: Array[Double], b: Array[Double]): Double = -Vec.distSq(a, b)

  def encode(m: Member, e: Array[Double]): Array[Double] = encode(m.d, m.mask, m.u, e)

  def encode(d: Int, mask: Array[Double], u: Array[Double], e: Array[Double]): Array[Double] = {
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

  def backprop(m: Member, e: Array[Double], out: Array[Double], dOut: Array[Double],
               gU: Array[Double]): Unit = {
    val d = m.d
    var j = 0
    while (j < d) {
      val dz = dOut(j) * (1.0 - out(j) * out(j))
      val off = j * (d + 1)
      var i = 0
      while (i < d) { gU(off + i) += dz * m.mask(i) * e(i); i += 1 }
      gU(off + d) += dz
      j += 1
    }
  }

  def contrastiveLossGrad(m: Member,
                          pos: IndexedSeq[(Array[Double], Array[Double])],
                          negR: IndexedSeq[Array[Double]],
                          negS: IndexedSeq[Array[Double]]): (Double, Array[Double]) = {
    val b = pos.length
    val nb = negR.length
    val rp = pos.map(p => encode(m, p._1))
    val sp = pos.map(p => encode(m, p._2))
    val rn = negR.map(encode(m, _))
    val sn = negS.map(encode(m, _))
    val dRp = Array.fill(b)(Vec.zeros(m.d))
    val dSp = Array.fill(b)(Vec.zeros(m.d))
    val dRn = Array.fill(nb)(Vec.zeros(m.d))
    val dSn = Array.fill(nb)(Vec.zeros(m.d))

    var total = 0.0
    var p = 0
    while (p < b) {
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
      backprop(m, pos(i)._1, rp(i), dRp(i), gU)
      backprop(m, pos(i)._2, sp(i), dSp(i), gU)
      i += 1
    }
    i = 0
    while (i < nb) {
      backprop(m, negR(i), rn(i), dRn(i), gU)
      backprop(m, negS(i), sn(i), dSn(i), gU)
      i += 1
    }
    Vec.scaleI(gU, 1.0 / b)
    (total / b, gU)
  }

  def tripletLossGrad(m: Member,
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
      val rp = encode(m, erp); val sp = encode(m, esp)
      val rn = encode(m, ern); val sn = encode(m, esn)
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
      backprop(m, erp, rp, dRp, gU)
      backprop(m, esp, sp, dSp, gU)
      backprop(m, ern, rn, dRn, gU)
      backprop(m, esn, sn, dSn, gU)
      p += 1
    }
    Vec.scaleI(gU, 1.0 / b)
    (total / b, gU)
  }

  def classificationLossGrad(m: Member, head: Array[Double],
                             pos: IndexedSeq[(Array[Double], Array[Double])],
                             negR: IndexedSeq[Array[Double]],
                             negS: IndexedSeq[Array[Double]]): (Double, Array[Double], Array[Double]) = {
    val d = m.d
    val gU = Vec.zeros(m.u.length)
    val gHead = Vec.zeros(head.length)
    var total = 0.0
    var n = 0

    def example(er: Array[Double], es: Array[Double], y: Double): Unit = {
      val u = encode(m, er); val v = encode(m, es)
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
      backprop(m, er, u, du, gU)
      backprop(m, es, v, dv, gU)
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

/** `MemberView` on the reference encode: E_k(g ⊙ E(x)) with the mask
  * multiplied into every term.
  */
final class ReferenceMemberView(g: Array[Double], mask: Array[Double], u: Array[Double]) extends EmbView {
  override def apply(base: Array[Double]): Array[Double] =
    ReferenceKernel.encode(g.length, mask, u, Vec.had(g, base))
}
