package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Reproduces the paper's tables, one test per table id; prints
  * paper-vs-measured rows. Run one table alone with
  * `sbt "bench/testOnly repro.bench.TablesBench -- -t \"table 4\""`.
  */
class TablesBench extends SparkSpec {
  Experiments.tables.foreach { case (id, table) =>
    test(s"table $id") {
      Experiments.printTable(s"Table $id", table(spark))
    }
  }
}
