package repro.core

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.data.{ERDataGen, ERDataset}
import repro.index.EmbView
import repro.ml.Vec
import repro.text.HashEmbedding
import repro.util.Rnd
import scala.jdk.CollectionConverters._

/** A retrieval view as plain data, so the reference scan can ship it to
  * Spark tasks; `view` builds the program's view from it.
  */
sealed trait ViewSpec extends Serializable { def view: EmbView }
case object PlainSpec extends ViewSpec { def view: EmbView = new PlainView }
final case class ScaleSpec(g: Array[Double]) extends ViewSpec { def view: EmbView = new ScaleView(g) }
final case class MemberSpec(g: Array[Double], mask: Array[Double], u: Array[Double]) extends ViewSpec {
  def view: EmbView = new MemberView(g, new Member(g.length, mask, u))
}

/** The Spark retrieval that CAND came from before it moved to the driver,
  * kept as the reference: a `mapPartitions` scan that encodes each S record
  * once and probes every member's index through its view, then
  * `groupBy`/`min`/`orderBy`/`limit` over the hits. A top-level object so
  * its closures capture no test suite.
  */
object SparkCandReference {
  private val hitSchema = StructType(Array(
    StructField("sid", IntegerType, nullable = false),
    StructField("rid", IntegerType, nullable = false),
    StructField("dist", DoubleType, nullable = false),
    StructField("member", IntegerType, nullable = false)))

  def cand(spark: SparkSession, ds: ERDataset, emb: HashEmbedding, rBase: Array[Array[Double]],
           specs: IndexedSeq[ViewSpec], k: Int, candSize: Int): IndexedSeq[CandPair] = {
    val bcEmb = spark.sparkContext.broadcast(emb)
    val bcR = spark.sparkContext.broadcast(rBase)
    val bcSpecs = spark.sparkContext.broadcast(specs)
    val projected = ds.sDF(spark).select((Seq("id") ++ ds.schema).map(col): _*)
    val rdd = projected.rdd.mapPartitions { rows =>
      val e = bcEmb.value
      val vs = bcSpecs.value.map(_.view)
      val idxs = Blocker.buildIndexes(bcR.value, vs)
      rows.flatMap { row =>
        val id = row.getInt(0)
        val attrs = (1 until row.length).map(i => Option(row.getString(i)).getOrElse(""))
        val base = e.recordVec(attrs)
        vs.indices.iterator.flatMap { m =>
          idxs(m).search(vs(m)(base), k).iterator.map { case (rid, d) => Row(id, rid, d, m) }
        }
      }
    }
    spark.createDataFrame(rdd, hitSchema)
      .groupBy(col("rid"), col("sid"))
      .agg(min(col("dist")).as("dist"))
      .orderBy(col("dist").asc, col("rid").asc, col("sid").asc)
      .limit(candSize)
      .collect().map(r => CandPair(r.getInt(0), r.getInt(1), r.getDouble(2))).toIndexedSeq
  }
}

class BlockerSpec extends SparkSpec {
  private lazy val ds = ERDataGen.amazonGoogle(scale = 0.08)
  private lazy val embedder = Dial.embedderFor(ds, 32)

  test("PairFeatures scalars are bounded similarity values") {
    val s = PairFeatures.scalars(Seq("a b c"), Seq("a b d"))
    assert(s.length == PairFeatures.nScalar)
    assert(s.forall(v => v >= 0.0 && v <= 1.0))
    assert(s(0) == 0.5) // token jaccard {a,b,c} vs {a,b,d}
  }

  test("Embedder caches base embeddings by id") {
    assert(embedder.rBase.length == ds.r.size)
    assert(embedder.sBase.length == ds.s.size)
    assert(embedder.rBase(3).toSeq == embedder.emb.recordVec(ds.r(3).attrs).toSeq)
  }

  test("Embedder adapted embedding applies the diagonal scale") {
    val g = Array.tabulate(32)(i => 1.0 + i * 0.01)
    val a = embedder.adaptedR(0, g)
    a.indices.foreach(i => assert(a(i) == g(i) * embedder.rBase(0)(i)))
  }

  test("embedderFor memoizes per dataset and dimension") {
    assert(Dial.embedderFor(ds, 32) eq embedder)
    assert(!(Dial.embedderFor(ds, 16) eq embedder))
  }

  test("buildIndexes builds one index per view with all R vectors") {
    val views = IndexedSeq(new PlainView, new PlainView)
    val idxs = Blocker.buildIndexes(embedder.rBase, views)
    assert(idxs.length == 2)
    assert(idxs.forall(_.size == ds.r.size))
  }

  private def cand(views: IndexedSeq[EmbView], k: Int, candSize: Int,
                   sBase: Array[Array[Double]] = embedder.sBase): IndexedSeq[CandPair] =
    Blocker.retrieveCand(sBase, views, Blocker.buildIndexes(embedder.rBase, views), k, candSize)

  test("retrieveCand respects candSize and sorts by distance") {
    val got = cand(IndexedSeq(new PlainView), k = 3, candSize = 50)
    assert(got.length == 50)
    assert(got.map(_.dist).sliding(2).forall(w => w.length < 2 || w(0) <= w(1)))
    assert(got.map(c => (c.rId, c.sId)).distinct.length == 50)
  }

  test("retrieved candidates contain duplicates at decent recall even untrained") {
    val got = cand(IndexedSeq(new PlainView), k = 3, candSize = 3 * ds.s.size)
    val recall = Metrics.candRecall(got.map(c => (c.rId, c.sId)), ds.dups)
    assert(recall > 30.0, s"pretrained recall $recall")
  }

  test("two views give union candidates at least as rich as one") {
    val member = Committee.init(1, 32, 0.5, seed = 5).members.head
    val g = Array.fill(32)(1.0)
    val candOne = cand(IndexedSeq(new PlainView), k = 2, candSize = 100000)
    val candTwo = cand(IndexedSeq(new PlainView, new MemberView(g, member)), k = 2, candSize = 100000)
    assert(candTwo.size >= candOne.size)
    val oneSet = candOne.map(c => (c.rId, c.sId)).toSet
    val twoSet = candTwo.map(c => (c.rId, c.sId)).toSet
    assert(oneSet.subsetOf(twoSet))
  }

  test("tiny lists: k > |R| returns every R record per s, and candSize above the union returns it whole") {
    val rBase = Array(Array(0.0, 0.0), Array(1.0, 0.0), Array(0.0, 2.0))
    val sBase = Array(Array(0.1, 0.0), Array(0.0, 1.9))
    val views = IndexedSeq(new PlainView, new ScaleView(Array(2.0, 0.5)))
    val got = Blocker.retrieveCand(sBase, views, Blocker.buildIndexes(rBase, views), k = 10, candSize = 1000)
    assert(got.map(c => (c.rId, c.sId)).toSet == (for (r <- 0 until 3; s <- 0 until 2) yield (r, s)).toSet)
    assert(got.length == 6)
    got.foreach { c =>
      val closest = views.map(v => Vec.distSq(v(rBase(c.rId)), v(sBase(c.sId)))).min
      assert(c.dist == closest, s"$c")
    }
    assert(Blocker.retrieveCand(Array.empty[Array[Double]], views, Blocker.buildIndexes(rBase, views), 10, 1000).isEmpty)
    assert(Blocker.retrieveCand(sBase, views, Blocker.buildIndexes(Array.empty[Array[Double]], views), 10, 1000).isEmpty)
  }

  test("pairs at equal distance are ordered by r id, then s id") {
    val rBase = Array(Array(0.0), Array(10.0))
    val sBase = Array(Array(9.0), Array(1.0), Array(9.0))
    val views = IndexedSeq(new PlainView)
    val got = Blocker.retrieveCand(sBase, views, Blocker.buildIndexes(rBase, views), k = 1, candSize = 3)
    assert(got == IndexedSeq(CandPair(0, 1, 1.0), CandPair(1, 0, 1.0), CandPair(1, 2, 1.0)))
  }

  test("CAND of a subset of S matches DuckDB's top-k, min-distance dedup and cut (oracle)") {
    val member = Committee.init(1, 32, 0.75, seed = 9).members.head
    val views = IndexedSeq(new PlainView, new MemberView(Array.fill(32)(1.0), member))
    val sBase = embedder.sBase.take(40)
    val k = 3
    val union = cand(views, k, Int.MaxValue, sBase)
    val candSize = union.size / 2
    assert(candSize > 0 && candSize < union.size)
    val got = cand(views, k, candSize, sBase)
    val distRows = for {
      m <- views.indices; sId <- sBase.indices; rId <- embedder.rBase.indices
    } yield Row(m, rId, sId, Vec.distSq(views(m)(embedder.rBase(rId)), views(m)(sBase(sId))))
    val distDf = spark.createDataFrame(distRows.asJava, StructType(Array(
      StructField("member", IntegerType), StructField("rid", IntegerType),
      StructField("sid", IntegerType), StructField("dist", DoubleType))))
    val candDf = spark.createDataFrame(got.map(c => Row(c.rId, c.sId, c.dist)).asJava, StructType(Array(
      StructField("rid", IntegerType), StructField("sid", IntegerType), StructField("dist", DoubleType))))
    Oracle.assertEquivalent(
      candDf,
      s"""WITH hits AS (
         |  SELECT CAST(rid AS INT) AS rid, CAST(sid AS INT) AS sid, CAST(dist AS DOUBLE) AS dist,
         |         row_number() OVER (PARTITION BY member, sid
         |                            ORDER BY CAST(dist AS DOUBLE), CAST(rid AS INT)) AS rn
         |  FROM d)
         |SELECT rid, sid, MIN(dist) AS dist FROM hits WHERE rn <= $k
         |GROUP BY rid, sid ORDER BY dist, rid, sid LIMIT $candSize""".stripMargin,
      "d" -> distDf)
  }

  /** The views of one comparison: plain, matcher-scaled, and a random
    * N = 10 committee.
    */
  private def viewSets(d: Int): Seq[(String, IndexedSeq[ViewSpec])] = {
    val rng = new Rnd.Gen(17)
    val g = Array.fill(d)(0.5 + rng.nextDouble())
    val committee = Committee.init(10, d, 0.75, seed = 23).members
    Seq("PlainView" -> IndexedSeq(PlainSpec),
        "ScaleView" -> IndexedSeq(ScaleSpec(g)),
        "N = 10 MemberViews" -> committee.map(m => MemberSpec(g, m.mask, m.u): ViewSpec))
  }

  Seq(
    "Walmart-Amazon" -> (() => ERDataGen.walmartAmazon(scale = 0.25)),
    "DBLP-Scholar" -> (() => ERDataGen.dblpScholar(scale = 0.25)),
  ).foreach { case (name, gen) =>
    test(s"driver CAND equals the Spark scan's CAND (pairs, distances, order) on $name") {
      val data = gen()
      val e = Dial.embedderFor(data, 64)
      val candSize = 3 * data.s.size
      viewSets(e.d).foreach { case (what, specs) =>
        val views = specs.map(_.view)
        val driver = Blocker.retrieveCand(e.sBase, views, Blocker.buildIndexes(e.rBase, views), 3, candSize)
        val reference = SparkCandReference.cand(spark, data, e.emb, e.rBase, specs, 3, candSize)
        assert(driver.nonEmpty)
        assert(driver == reference, what)
      }
    }
  }

  test("the benchmark adapter encodes S and equals the driver path") {
    val views = IndexedSeq(new PlainView)
    val idxs = Blocker.buildIndexes(embedder.rBase, views)
    assert(Blocker.retrieveCand(spark, ds, ds.sDF(spark), embedder.emb, views, idxs, 3, 200) ==
           Blocker.retrieveCand(embedder.sBase, views, idxs, 3, 200))
  }
}
