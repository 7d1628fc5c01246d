package repro.core

import java.io.{OutputStream, PrintStream}
import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{ERDataset, Rec, TestPair}
import repro.util.Rnd

/** Algorithm 1's invariants as properties of [[ActiveLearning.run]], over
  * tiny hand-built datasets and a stub round function: a random CAND that
  * may hold test and already-labeled pairs, random probabilities, and a
  * selector from the real [[Selectors]] strategies. Nothing is trained.
  */
class ActiveLearningSpec extends AnyFunSuite {
  import ActiveLearningSpec._

  private val genCase: Gen[Case] = for {
    nR <- Gen.choose(1, 5)
    nS <- Gen.choose(1, 5)
    all = for (r <- 0 until nR; s <- 0 until nS) yield (r, s)
    dups <- Gen.someOf(all)
    test <- Gen.someOf(all)
    seedPairs <- Gen.someOf(all.filterNot(test.contains))
    rounds <- Gen.choose(0, 4)
    budget <- Gen.choose(0, 6)
    strategy <- Gen.oneOf(RandomSel, GreedySel, UncertaintySel, Partition2, Partition4, QbcSel, BadgeSel)
    seed <- Gen.long
  } yield {
    val recs = (n: Int) => (0 until n).map(i => Rec(i, IndexedSeq(s"rec $i")))
    val ds = ERDataset("tiny", IndexedSeq("title"), recs(nR), recs(nS), dups.toSet,
                       test.toIndexedSeq.sorted.map { case (r, s) => TestPair(r, s, dups.toSet((r, s))) })
    Case(ds, seedPairs.toIndexedSeq.map(p => LabeledPair(p._1, p._2, ds.dups(p))), rounds, budget, strategy, seed)
  }

  /** Runs the loop with the stub round function, recording each call; the
    * result is returned without its wall-clock stage times. The loop's
    * per-round progress lines are discarded.
    */
  private def run(c: Case): (RunResult, IndexedSeq[Call]) = {
    val all = for (r <- c.ds.r.indices; s <- c.ds.s.indices) yield (r, s)
    val calls = IndexedSeq.newBuilder[Call]
    val out = Console.withErr(Discard)(ActiveLearning.run("stub", c.ds, c.seedT, c.rounds, c.budget) { (t, round) =>
      val g = new Rnd.Gen(Rnd.combine(c.seed, round))
      val cand = g.sampleDistinct(all.length, g.nextInt(all.length + 1)).toIndexedSeq.map(all)
      val scored = cand.map { case (r, s) => ScoredCand(r, s, g.nextDouble(), g.nextDouble()) }
      calls += Call(t, cand)
      val ctx = SelectorCtx(
        rng = new Rnd.Gen(Rnd.combine(c.seed, 100 + round)),
        gradEmbedding = sc => Array(sc.prob, sc.dist, sc.rId.toDouble, sc.sId.toDouble),
        bootstrapProbs = cs => (1 to 3).map(k => cs.map(sc => (sc.prob * k + sc.dist) % 1.0).toArray))
      ActiveLearning.Round(cand, scored.map(_.prob),
        (idx, b) => Selectors.select(c.strategy, idx.map(scored), b, ctx), StageTimes(0, 0, 0, 0))
    })
    (out.copy(stageTimes = IndexedSeq.empty), calls.result())
  }

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }

  private def pairs(t: IndexedSeq[LabeledPair]) = t.map(lp => (lp.rId, lp.sId))

  test("T grows by exactly min(B, selectable) each labeling round") {
    check(Prop.forAllNoShrink(genCase) { c =>
      val (_, calls) = run(c)
      calls.zip(calls.tail).forall { case (Call(t, cand), Call(next, _)) =>
        val labeled = pairs(t).toSet
        val selectable = cand.count(p => !labeled(p) && !c.ds.testSet(p))
        next.length - t.length == math.min(c.budget, selectable)
      }
    })
  }

  test("labels are gold, never a test pair, and no pair is labeled twice") {
    check(Prop.forAllNoShrink(genCase) { c =>
      val finalT = run(c)._2.last.t
      val newly = finalT.drop(c.seedT.length)
      newly.forall(lp => lp.y == c.ds.dups((lp.rId, lp.sId))) &&
        !pairs(newly).exists(c.ds.testSet) && pairs(finalT).distinct.length == finalT.length
    })
  }

  test("there are rounds + 1 stats numbered 1..n, and the last is the returned outcome") {
    check(Prop.forAllNoShrink(genCase) { c =>
      val (out, calls) = run(c)
      val last = out.roundStats.last
      out.roundStats.map(_.round) == (1 to c.rounds + 1) && calls.length == c.rounds + 1 &&
        out.nLabeled == calls.last.t.length && last.nLabeled == out.nLabeled &&
        last.candRecall == out.candRecall && last.testF1 == out.testPRF.f1 && last.allF1 == out.allPRF.f1
    })
  }

  test("every metric is determined by the seed") {
    check(Prop.forAllNoShrink(genCase)(c => run(c) == run(c)))
  }
}

object ActiveLearningSpec {
  private val Discard = new PrintStream(OutputStream.nullOutputStream())

  private final case class Case(ds: ERDataset, seedT: IndexedSeq[LabeledPair], rounds: Int,
                                budget: Int, strategy: Strategy, seed: Long)

  /** One call of the round function: the T it was given and the CAND it returned. */
  private final case class Call(t: IndexedSeq[LabeledPair], cand: IndexedSeq[(Int, Int)])
}
