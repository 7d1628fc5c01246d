package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.{Adam, Mlp, ReferenceMlp, Vec}
import repro.util.Rnd

class MatcherSpec extends AnyFunSuite {
  private val d = 8
  private val g = new Rnd.Gen(1)

  private def randomVec(): Array[Double] = Array.fill(d)(g.nextGaussian())
  private def randomScalars(): Array[Double] = Array.fill(PairFeatures.nScalar)(g.nextDouble())

  test("feature vector layout: |u-v|, u*v, scalars") {
    val m = new Matcher(d, seed = 1)
    val er = randomVec(); val es = randomVec(); val sc = randomScalars()
    val x = m.features(er, es, sc)
    assert(x.length == 2 * d + PairFeatures.nScalar)
    (0 until d).foreach { i =>
      assert(math.abs(x(i) - math.abs(er(i) - es(i))) < 1e-12) // g starts at 1
      assert(math.abs(x(d + i) - er(i) * es(i)) < 1e-12)
    }
    sc.indices.foreach(i => assert(x(2 * d + i) == sc(i)))
  }

  test("features rejects wrong scalar count") {
    val m = new Matcher(d, seed = 1)
    intercept[IllegalArgumentException](m.features(randomVec(), randomVec(), Array(1.0)))
  }

  test("g gradient matches finite differences") {
    val m = new Matcher(d, seed = 2)
    // move g off its initialisation so the check is not at a special point
    m.g.indices.foreach(i => m.g(i) = 1.0 + 0.2 * g.nextGaussian())
    val ex = TrainEx(randomVec(), randomVec(), randomScalars(), 1.0)
    val gHead = Vec.zeros(m.mlp.nParams)
    val gG = Vec.zeros(d)
    m.backprop(ex, gHead, gG)
    val h = 1e-6
    (0 until d).foreach { i =>
      val orig = m.g(i)
      m.g(i) = orig + h
      val lp = Mlp.bceFromLogit(m.mlp.outLogit(m.mlp.hidden(m.features(ex.er, ex.es, ex.scalars))), 1.0)
      m.g(i) = orig - h
      val lm = Mlp.bceFromLogit(m.mlp.outLogit(m.mlp.hidden(m.features(ex.er, ex.es, ex.scalars))), 1.0)
      m.g(i) = orig
      val num = (lp - lm) / (2 * h)
      assert(math.abs(gG(i) - num) < 1e-4, s"g[$i]: ${gG(i)} vs $num")
    }
  }

  test("head gradient through features matches finite differences") {
    val m = new Matcher(d, seed = 3)
    val ex = TrainEx(randomVec(), randomVec(), randomScalars(), 0.0)
    val gHead = Vec.zeros(m.mlp.nParams)
    val gG = Vec.zeros(d)
    m.backprop(ex, gHead, gG)
    val x = m.features(ex.er, ex.es, ex.scalars)
    val numeric = {
      val params = m.mlp.params
      val out = new Array[Double](params.length)
      val h = 1e-6
      params.indices.foreach { i =>
        val w = params(i)
        params(i) = w + h
        val lp = Mlp.bceFromLogit(m.mlp.outLogit(m.mlp.hidden(x)), 0.0)
        params(i) = w - h
        val lm = Mlp.bceFromLogit(m.mlp.outLogit(m.mlp.hidden(x)), 0.0)
        params(i) = w
        out(i) = (lp - lm) / (2 * h)
      }
      out
    }
    numeric.indices.foreach(i => assert(math.abs(gHead(i) - numeric(i)) < 1e-4, s"head $i"))
  }

  test("training separates synthetic duplicates from non-duplicates") {
    val rng = new Rnd.Gen(5)
    def entity(): Array[Double] = Array.fill(d)(rng.nextGaussian())
    val data = (1 to 120).map { i =>
      val e = entity()
      if (i % 2 == 0) {
        val dup = e.clone(); dup.indices.foreach(j => dup(j) += 0.1 * rng.nextGaussian())
        TrainEx(e, dup, Array.fill(PairFeatures.nScalar)(0.8), 1.0)
      } else TrainEx(e, entity(), Array.fill(PairFeatures.nScalar)(0.07), 0.0)
    }
    val m = new Matcher(d, seed = 6)
    m.train(data, epochs = 30, batch = 16, new Rnd.Gen(7))
    val acc = data.count(ex => (m.prob(ex.er, ex.es, ex.scalars) > 0.5) == (ex.y > 0.5)).toDouble / data.size
    assert(acc > 0.9, s"accuracy $acc")
  }

  test("trainG=false freezes the simulated transformer") {
    val rng = new Rnd.Gen(8)
    val data = (1 to 40).map { _ =>
      TrainEx(Array.fill(d)(rng.nextGaussian()), Array.fill(d)(rng.nextGaussian()),
              randomScalars(), if (rng.nextBoolean(0.5)) 1.0 else 0.0)
    }
    val m = new Matcher(d, seed = 9)
    m.train(data, epochs = 3, batch = 8, new Rnd.Gen(10), trainG = false)
    assert(m.g.forall(_ == 1.0))
    val m2 = new Matcher(d, seed = 9)
    m2.train(data, epochs = 3, batch = 8, new Rnd.Gen(10), trainG = true)
    assert(m2.g.exists(_ != 1.0))
  }

  test("training is deterministic in seeds") {
    val rng = new Rnd.Gen(11)
    val data = (1 to 30).map { _ =>
      TrainEx(Array.fill(d)(rng.nextGaussian()), Array.fill(d)(rng.nextGaussian()),
              randomScalars(), if (rng.nextBoolean(0.5)) 1.0 else 0.0)
    }
    def trained(): Matcher = {
      val m = new Matcher(d, seed = 12)
      m.train(data, epochs = 4, batch = 8, new Rnd.Gen(13))
      m
    }
    val a = trained(); val b = trained()
    assert(a.mlp.params.toSeq == b.mlp.params.toSeq)
    assert(a.g.toSeq == b.g.toSeq)
  }

  test("gradEmbedding equals (p - yhat) * [hidden; 1]") {
    val m = new Matcher(d, seed = 14)
    val er = randomVec(); val es = randomVec(); val sc = randomScalars()
    val x = m.features(er, es, sc)
    val h = m.mlp.hidden(x)
    val p = m.mlp.prob(x)
    val yHat = if (p > 0.5) 1.0 else 0.0
    val ge = m.gradEmbedding(er, es, sc)
    assert(ge.length == h.length + 1)
    h.indices.foreach(i => assert(math.abs(ge(i) - (p - yHat) * h(i)) < 1e-12))
    assert(math.abs(ge(h.length) - (p - yHat)) < 1e-12)
  }

  test("confident predictions yield small gradient embeddings (BADGE intuition)") {
    val m = new Matcher(d, seed = 15)
    val pairs = (1 to 50).map(_ => (randomVec(), randomVec(), randomScalars()))
    val magsAndConf = pairs.map { case (er, es, sc) =>
      val p = m.prob(er, es, sc)
      (Vec.l2(m.gradEmbedding(er, es, sc)), math.abs(p - 0.5))
    }
    // the most confident pair should not have the largest gradient magnitude
    val mostConfident = magsAndConf.maxBy(_._2)
    val maxMag = magsAndConf.map(_._1).max
    assert(mostConfident._1 < maxMag + 1e-12)
  }

  test("MatcherScorer agrees with direct prob computation") {
    val emb = new repro.text.HashEmbedding(d = d, seed = 42)
    val m = new Matcher(d, seed = 17)
    val featurizer = new PairFeaturizer(Map.empty)
    val scorer = new MatcherScorer(emb, featurizer, m)
    val rA = Seq("zorvex kx100 red")
    val sA = Seq("zorvex kx100 dark red")
    val direct = m.prob(emb.recordVec(rA), emb.recordVec(sA), featurizer.scalars(rA, sA))
    assert(math.abs(scorer.prob(rA, sA) - direct) < 1e-12)
  }

  /** [[Matcher.train]] over the per-unit head arithmetic of [[ReferenceMlp]],
    * which computes the hidden layer once for the loss and again for the
    * gradients.
    */
  private def referenceTrain(m: Matcher, data: IndexedSeq[TrainEx], epochs: Int, batch: Int,
                             rng: Rnd.Gen): Double = {
    val adamHead = new Adam(m.mlp.nParams, Matcher.HeadLr)
    val adamG = new Adam(m.d, Matcher.GLr, weightDecay = 0.0)
    val smoothed = data.map(ex => ex.copy(y = ex.y * (1 - 2 * Matcher.LabelSmooth) + Matcher.LabelSmooth))
    def backprop(ex: TrainEx, gHead: Array[Double], gG: Array[Double]): Double = {
      val x = m.features(ex.er, ex.es, ex.scalars)
      val loss = Mlp.bceFromLogit(ReferenceMlp.score(m.mlp, x), ex.y)
      val gx = ReferenceMlp.backprop(m.mlp, x, ex.y, gHead)
      var i = 0
      while (i < m.d) {
        val u = m.g(i) * ex.er(i)
        val v = m.g(i) * ex.es(i)
        val sgn = math.signum(u - v)
        val du = gx(i) * sgn + gx(m.d + i) * v
        val dv = -gx(i) * sgn + gx(m.d + i) * u
        gG(i) += du * ex.er(i) + dv * ex.es(i)
        i += 1
      }
      loss
    }
    var lastEpochLoss = 0.0
    (0 until epochs).foreach { _ =>
      val order = rng.permutation(smoothed.length)
      lastEpochLoss = 0.0
      smoothed.indices.grouped(batch).foreach { idx =>
        val gHead = Vec.zeros(m.mlp.nParams)
        val gG = Vec.zeros(m.d)
        idx.foreach(i => lastEpochLoss += backprop(smoothed(order(i)), gHead, gG))
        Vec.scaleI(gHead, 1.0 / idx.length); Vec.scaleI(gG, 1.0 / idx.length)
        adamHead.step(m.mlp.params, gHead)
        adamG.step(m.g, gG)
      }
    }
    lastEpochLoss / math.max(1, smoothed.length)
  }

  test("training, prob and gradEmbedding equal the per-unit reference head bit for bit") {
    val rng = new Rnd.Gen(16)
    val data = (1 to 45).map { _ =>
      TrainEx(Array.fill(d)(rng.nextGaussian()), Array.fill(d)(rng.nextGaussian()),
              randomScalars(), if (rng.nextBoolean(0.4)) 1.0 else 0.0)
    }
    val m = new Matcher(d, seed = 17)
    val ref = new Matcher(d, seed = 17)
    val loss = m.train(data, epochs = 5, batch = 16, new Rnd.Gen(18))
    val refLoss = referenceTrain(ref, data, epochs = 5, batch = 16, new Rnd.Gen(18))
    assert(loss == refLoss)
    assert(m.mlp.params.sameElements(ref.mlp.params), "head parameters")
    assert(m.g.sameElements(ref.g), "g")
    data.foreach { ex =>
      val x = m.features(ex.er, ex.es, ex.scalars)
      assert(m.prob(ex.er, ex.es, ex.scalars) == ReferenceMlp.prob(m.mlp, x))
      val h = ReferenceMlp.hidden(m.mlp, x)
      val p = Mlp.sigmoid(ReferenceMlp.outLogit(m.mlp, h))
      val yHat = if (p > 0.5) 1.0 else 0.0
      assert(m.gradEmbedding(ex.er, ex.es, ex.scalars).sameElements(h.map((p - yHat) * _) :+ (p - yHat)))
    }
  }
}
