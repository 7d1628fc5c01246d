package repro.forest

import org.apache.spark.sql.SparkSession
import repro.core.{Dial, DialConfig, LabeledPair, Metrics, PRF, RunResult, RoundStat, OpTimes}
import repro.data.ERDataset
import repro.util.{Par, Rnd}
import scala.collection.mutable

/** The Random-Forest + QBC-via-bootstrap active-learning baseline
  * (paper §4.3, first row of Table 2). Candidates come from the hand-crafted
  * Rules blocker (the pre-blocked pairs these baselines assume); selection
  * picks the highest-variance pairs under the bagged committee.
  */
object RfAl {

  /** Trees per forest. */
  private[forest] val NTrees = 20
  /** Seed of the seed set and of every forest. */
  private[forest] val Seed = 7L

  def run(spark: SparkSession, ds: ERDataset,
          rounds: Int = 4, budget: Int = 128): RunResult = {
    val cand = Dial.rulesFor(spark, ds)
    val dial = new Dial(spark, ds, DialConfig(seed = Seed)) // shared seed-set sampler
    var t = dial.seedSet()
    val labeled = mutable.LinkedHashSet.empty[(Int, Int)]
    t.foreach(lp => labeled += ((lp.rId, lp.sId)))

    val featCache = mutable.HashMap.empty[(Int, Int), Array[Double]]
    def feat(rId: Int, sId: Int): Array[Double] =
      featCache.getOrElseUpdate((rId, sId),
        SimFeatures.features(ds.rById(rId).attrs, ds.sById(sId).attrs))

    def train(data: IndexedSeq[LabeledPair], roundSeed: Long): RandomForest =
      RandomForest.fit(data.map(lp => feat(lp.rId, lp.sId)),
                       data.map(lp => if (lp.y) 1.0 else 0.0), NTrees, roundSeed)

    // the candidates' features, fixed for the run; their time counts
    // toward the find-all pass
    val f0 = System.nanoTime()
    val candFeats = Par.tabulate(cand.size) { i =>
      val (rId, sId) = cand(i)
      SimFeatures.features(ds.rById(rId).attrs, ds.sById(sId).attrs)
    }
    val featSec = (System.nanoTime() - f0) / 1e9

    /** Vote fractions over the whole candidate set, in candidate order,
      * computed concurrently on the driver.
      */
    def score(forest: RandomForest): IndexedSeq[Double] =
      Par.tabulate(cand.size)(i => forest.voteFraction(candFeats(i)))

    val stats = mutable.ArrayBuffer.empty[RoundStat]
    var finalAll = PRF(0, 0, 0); var finalTest = PRF(0, 0, 0)
    var findAllSec = 0.0
    var round = 1
    while (round <= rounds + 1) {
      val isFinal = round == rounds + 1
      val forest = train(t, Rnd.combine(Seed, round))
      val t0 = System.nanoTime()
      val probs = score(forest)
      val sec = (System.nanoTime() - t0) / 1e9
      val predicted = cand.indices.filter(i => probs(i) > 0.5).map(cand).toSet
      val allPRF = Metrics.allPairs(predicted, ds.dups)
      val testPRF = Metrics.testEval(ds.testPairs, predicted)
      stats += RoundStat(round, t.length,
        Metrics.candRecall(cand, ds.dups), testPRF.f1, allPRF.f1)
      if (isFinal) {
        finalAll = allPRF; finalTest = testPRF; findAllSec = featSec + sec
      } else {
        val selectable = cand.indices.filterNot(i => labeled.contains(cand(i)) || ds.testSet.contains(cand(i)))
        val byVariance = selectable.sortBy { i =>
          val pr = probs(i); -(pr * (1.0 - pr))
        }
        val sel = byVariance.take(budget).map(cand)
        val newly = sel.map { case (a, b) => LabeledPair(a, b, ds.dups.contains((a, b))) }
        t = t ++ newly
        newly.foreach(lp => labeled += ((lp.rId, lp.sId)))
      }
      round += 1
    }
    RunResult("Random Forest", ds.name, stats.toIndexedSeq,
              Metrics.candRecall(cand, ds.dups), finalTest, finalAll,
              OpTimes(0, 0, 0, 0), findAllSec, t.length)
  }
}
