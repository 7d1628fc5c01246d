package repro.core

import repro.index.PairScorer
import repro.ml.{Adam, Mlp, Vec}
import repro.text.HashEmbedding
import repro.util.Rnd

/** A labeled pair in T (record ids refer to the R and S lists). */
final case class LabeledPair(rId: Int, sId: Int, y: Boolean)

/** One matcher training example: frozen base embeddings of both records plus
  * the fixed scalar pair features and the 0/1 label.
  */
final case class TrainEx(er: Array[Double], es: Array[Double],
                         scalars: Array[Double], y: Double)

/** The paper's matcher (§3.1): paired-mode representation + `F_W` head.
  *
  * Paired representation of (r, s): `[|u − v|, u ⊙ v, scalar-sims]` where
  * `u = g ⊙ E(r)`, `v = g ⊙ E(s)` and `g` is the trainable diagonal that
  * simulates fine-tuning the transformer parameters Θ (DESIGN.md §2).
  * Head: linear → tanh → linear → sigmoid (Eq. 5), trained with binary
  * cross-entropy (Eq. 6) by AdamW — head and Θ(g) get separate learning
  * rates as in the paper (1e-3 head vs 3e-5 transformer, rescaled here).
  */
final class Matcher(val d: Int, seed: Long) extends Serializable {
  import Matcher._

  val g: Array[Double] = Array.fill(d)(1.0)
  val nIn: Int = 2 * d + PairFeatures.nScalar
  val mlp = new Mlp(nIn, Rnd.combine(seed, 0xABCL))

  private val adamHead = new Adam(mlp.nParams, HeadLr)
  private val adamG = new Adam(d, GLr, weightDecay = 0.0)

  /** Paired-mode feature vector from frozen base embeddings. */
  def features(er: Array[Double], es: Array[Double], scalars: Array[Double]): Array[Double] = {
    require(scalars.length == PairFeatures.nScalar, "bad scalar feature count")
    val x = new Array[Double](nIn)
    var i = 0
    while (i < d) {
      val u = g(i) * er(i)
      val v = g(i) * es(i)
      x(i) = math.abs(u - v)
      x(d + i) = u * v
      i += 1
    }
    System.arraycopy(scalars, 0, x, 2 * d, scalars.length)
    x
  }

  def prob(er: Array[Double], es: Array[Double], scalars: Array[Double]): Double =
    mlp.prob(features(er, es, scalars))

  /** Per-example backprop: accumulates head grads into `gHead` and Θ-scale
    * grads into `gG`; returns the example loss. The hidden layer is computed
    * once, for the loss and the gradients.
    */
  def backprop(ex: TrainEx, gHead: Array[Double], gG: Array[Double]): Double = {
    val x = features(ex.er, ex.es, ex.scalars)
    val h = mlp.hidden(x)
    val loss = Mlp.bceFromLogit(mlp.outLogit(h), ex.y)
    val gx = mlp.backprop(x, h, ex.y, gHead)
    var i = 0
    while (i < d) {
      val u = g(i) * ex.er(i)
      val v = g(i) * ex.es(i)
      val sgn = math.signum(u - v)
      val du = gx(i) * sgn + gx(d + i) * v
      val dv = -gx(i) * sgn + gx(d + i) * u
      gG(i) += du * ex.er(i) + dv * ex.es(i)
      i += 1
    }
    loss
  }

  /** Mini-batch AdamW training (Eq. 6). When `trainG` is false the simulated
    * transformer stays frozen (the paper's multilingual configuration).
    *
    * Targets are label-smoothed (ε = 0.1) for the final all-pairs F1 (W-A:
    * 74.9, against 71.7 at ε = 0). It does not make uncertainty sampling
    * (Eq. 4) find positives: |T_p| went 64, 65, 66, 110, against 64, 64, 64,
    * 75, as thousands of CAND negatives sit near p = 0.5 and outrank the
    * positives at 0.8 or more (a prior shift; DESIGN.md §4b).
    */
  def train(data: IndexedSeq[TrainEx], epochs: Int, batch: Int, rng: Rnd.Gen,
            trainG: Boolean = true): Double = {
    val smoothed = data.map(ex => ex.copy(y = ex.y * (1 - 2 * LabelSmooth) + LabelSmooth))
    var lastEpochLoss = 0.0
    var e = 0
    while (e < epochs) {
      val order = rng.permutation(smoothed.length)
      var off = 0
      lastEpochLoss = 0.0
      while (off < smoothed.length) {
        val end = math.min(off + batch, smoothed.length)
        val gHead = Vec.zeros(mlp.nParams)
        val gG = Vec.zeros(d)
        var i = off
        while (i < end) { lastEpochLoss += backprop(smoothed(order(i)), gHead, gG); i += 1 }
        val inv = 1.0 / (end - off)
        Vec.scaleI(gHead, inv); Vec.scaleI(gG, inv)
        adamHead.step(mlp.params, gHead)
        if (trainG) adamG.step(g, gG)
        off = end
      }
      e += 1
    }
    lastEpochLoss / math.max(1, smoothed.length)
  }

  /** BADGE gradient embedding: ∂ℓ(f(x), ŷ)/∂θ_out = (p − ŷ) · [h(x); 1]. */
  def gradEmbedding(er: Array[Double], es: Array[Double], scalars: Array[Double]): Array[Double] = {
    val x = features(er, es, scalars)
    val h = mlp.hidden(x)
    val p = Mlp.sigmoid(mlp.outLogit(h))
    val yHat = if (p > 0.5) 1.0 else 0.0
    val out = new Array[Double](h.length + 1)
    var i = 0
    while (i < h.length) { out(i) = (p - yHat) * h(i); i += 1 }
    out(h.length) = p - yHat
    out
  }
}

object Matcher {
  /** AdamW learning rates of the head and of Θ(g). */
  private[core] val HeadLr = 0.02
  private[core] val GLr = 0.004
  /** Label-smoothing ε of the training targets. */
  private[core] val LabelSmooth = 0.1
}

/** Broadcastable pair scorer: recomputes embeddings + features in-task.
  * `Dial` scores on the driver instead; this stays for the benchmark replay
  * (`dialbench/Replay.scala`), which scores CAND through
  * `SparkKnn.scorePairs` with it.
  */
final class MatcherScorer(emb: HashEmbedding, featurizer: PairFeaturizer,
                          matcher: Matcher) extends PairScorer {
  override def prob(rAttrs: Seq[String], sAttrs: Seq[String]): Double =
    matcher.prob(emb.recordVec(rAttrs), emb.recordVec(sAttrs),
                 featurizer.scalars(rAttrs, sAttrs))
}
