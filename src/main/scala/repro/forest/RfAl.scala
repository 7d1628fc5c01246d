package repro.forest

import org.apache.spark.sql.SparkSession
import repro.core.{ActiveLearning, DialConfig, LabeledPair, RunResult, StageTimes}
import repro.core.ActiveLearning.timed
import repro.data.ERDataset
import repro.rules.RulesBlocker
import repro.util.{Par, Rnd}
import scala.collection.mutable

/** The Random-Forest + QBC-via-bootstrap active-learning baseline
  * (paper §4.3, first row of Table 2). Candidates come from the hand-crafted
  * Rules blocker (the pre-blocked pairs these baselines assume); selection
  * picks the highest-variance pairs under the bagged committee.
  */
object RfAl {

  /** Seed of the seed set and of every forest. */
  private[forest] val Seed = 7L

  /** A run under the AL schedule of `rounds` × `budget` labels, by default
    * [[DialConfig]]'s, the one every table runs.
    */
  def run(spark: SparkSession, ds: ERDataset,
          rounds: Int = DialConfig().rounds, budget: Int = DialConfig().budget): RunResult = {
    // the sampler evaluates an embedder only for the multilingual dataset,
    // which has no rule candidates
    val seedSet = ActiveLearning.seedSet(ds, DialConfig(seed = Seed),
      throw new IllegalArgumentException(s"dataset ${ds.name}: the Random Forest has no multilingual seed set"))
    val cand = RulesBlocker.candidates(spark, ds)

    val featCache = mutable.HashMap.empty[(Int, Int), Array[Double]]
    def feat(rId: Int, sId: Int): Array[Double] =
      featCache.getOrElseUpdate((rId, sId),
        SimFeatures.features(ds.rById(rId).attrs, ds.sById(sId).attrs))

    def train(data: IndexedSeq[LabeledPair], roundSeed: Long): RandomForest =
      RandomForest.fit(data.map(lp => feat(lp.rId, lp.sId)),
                       data.map(lp => if (lp.y) 1.0 else 0.0), roundSeed)

    // the candidates' features, fixed for the run; their time counts as
    // every round's retrieval
    val (candFeats, featSec) = timed(Par.tabulate(cand.size) { i =>
      val (rId, sId) = cand(i)
      SimFeatures.features(ds.rById(rId).attrs, ds.sById(sId).attrs)
    })

    /** Vote fractions over the whole candidate set, in candidate order,
      * computed concurrently on the driver.
      */
    def score(forest: RandomForest): IndexedSeq[Double] =
      Par.tabulate(cand.size)(i => forest.voteFraction(candFeats(i)))

    ActiveLearning.run("Random Forest", ds, seedSet, rounds, budget) { (t, round) =>
      val (forest, trainSec) = timed(train(t, Rnd.combine(Seed, round)))
      val (probs, scoreSec) = timed(score(forest))
      ActiveLearning.Round(cand, probs, (selectable, b) =>
        selectable.sortBy { i => val pr = probs(i); -(pr * (1.0 - pr)) }.take(b).map(cand),
        StageTimes(trainSec, 0, featSec, scoreSec))
    }
  }
}
