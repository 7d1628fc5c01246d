package dialbench

import repro.core.{DialConfig, PRF, RunResult}
import repro.data.ERDataset

/** Output checks on one `Dial.run()` result, using only what `RunResult`
  * exposes plus the generated inputs. Each returned string is one failed
  * check; an empty result means the run's outputs are acceptable.
  */
object Checks {

  def run(r: RunResult, ds: ERDataset, cfg: DialConfig): Seq[String] = {
    val out = Seq.newBuilder[String]
    def need(ok: Boolean, msg: => String): Unit = if (!ok) out += msg
    val stats = r.roundStats
    need(stats.length == cfg.rounds + 1,
      s"roundStats has ${stats.length} entries, expected rounds + 1 = ${cfg.rounds + 1}")
    need(stats.map(_.round) == (1 to stats.length),
      s"round numbers ${stats.map(_.round).mkString(",")} are not 1..${stats.length}")
    // The seed set takes seedPos duplicates outside the test split (or all
    // of them, when fewer exist) and seedNeg negatives.
    val seedSize = math.min(cfg.seedPos, ds.dups.count(p => !ds.testSet.contains(p))) + cfg.seedNeg
    stats.headOption.foreach { first =>
      need(first.nLabeled == seedSize, s"seed set has ${first.nLabeled} pairs, expected $seedSize")
    }
    stats.zip(stats.drop(1)).foreach { case (a, b) =>
      val grown = b.nLabeled - a.nLabeled
      need(grown >= 0 && grown <= cfg.budget,
        s"|T| grew by $grown in round ${a.round}, outside [0, B = ${cfg.budget}]")
    }
    need(stats.lastOption.forall(_.nLabeled == r.nLabeled),
      s"final |T| ${r.nLabeled} differs from the last round's ${stats.lastOption.map(_.nLabeled)}")
    stats.lastOption.foreach { last =>
      need(last.candRecall == r.candRecall && last.allF1 == r.allPRF.f1 && last.testF1 == r.testPRF.f1,
        "final-pass metrics differ from the last roundStats entry")
    }
    need(r.allPRF.tp + r.allPRF.fn == ds.dups.size,
      s"all-pairs tp + fn = ${r.allPRF.tp + r.allPRF.fn}, but |DUPS| = ${ds.dups.size}")
    val quality = Seq("cand_recall" -> r.candRecall) ++ prf("all_pairs", r.allPRF) ++
      prf("test", r.testPRF) ++ stats.flatMap { s =>
        Seq(s"round${s.round}.cand_recall" -> s.candRecall, s"round${s.round}.test_f1" -> s.testF1,
            s"round${s.round}.all_pairs_f1" -> s.allF1)
      }
    quality.foreach { case (name, v) =>
      need(!v.isNaN && !v.isInfinite && v >= 0.0 && v <= 100.0, s"$name = $v is not a finite value in [0, 100]")
    }
    out.result()
  }

  private def prf(name: String, p: PRF): Seq[(String, Double)] =
    Seq(s"${name}_p" -> p.p, s"${name}_r" -> p.r, s"${name}_f1" -> p.f1)

  /** The quality outcome of a run, which must repeat exactly at one seed. */
  def fingerprint(r: RunResult): String =
    (r.roundStats.map(s => s"${s.round}:${s.nLabeled}:${s.candRecall}:${s.testF1}:${s.allF1}") :+
      s"final:${r.nLabeled}:${r.candRecall}:${counts(r.allPRF)}:${counts(r.testPRF)}").mkString(" ")

  private def counts(p: PRF): String = s"${p.tp}/${p.fp}/${p.fn}"
}
