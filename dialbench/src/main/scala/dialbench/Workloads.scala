package dialbench

import repro.core.{DialConfig, QbcSel}
import repro.data.{ERDataGen, ERDataset}

/** One benchmark workload: a generated dataset (from a seed and a scale)
  * plus the DIAL configuration run on it. The workload seed goes to the
  * dataset generator only; the program receives the generated records and
  * the (seed-independent) config.
  */
final case class Workload(name: String, gen: (Long, Double) => ERDataset, defaultSeed: Long,
                          cfg: DialConfig)

object Workloads {

  /** Labels per round in every labeling workload (the table runners' default). */
  val budget = 192

  val all: IndexedSeq[Workload] = IndexedSeq(
    // The headline session: every layer runs every round; pair scoring on
    // Spark and committee training dominate.
    Workload("wa-dial", (s, sc) => ERDataGen.walmartAmazon(seed = s, scale = sc), 11L,
      DialConfig(rounds = 1, budget = budget)),
    // The Table 10 find-all path: largest S and committee, no selection, so
    // index build, committee probing and scoring dominate.
    Workload("ds-findall", (s, sc) => ERDataGen.dblpScholar(seed = s, scale = sc), 15L,
      DialConfig(committeeN = 10, rounds = 0, budget = budget)),
    // Long textual records and tiny lists (k = 20, CAND = 20·|S| as in paper
    // §4.2): long-text pair scoring and QBC selection dominate, and QBC
    // scores CAND through the driver-side pair-feature cache.
    Workload("ab-qbc", (s, sc) => ERDataGen.abtBuy(seed = s, scale = sc), 13L,
      DialConfig(k = 20, candMult = 20.0, selector = QbcSel, rounds = 1, budget = budget)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
