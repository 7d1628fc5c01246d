package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.text.Tokenizer
import repro.util.Rnd

/** One entity record: `id` is its position in its list (see [[ERDataset]]);
  * `attrs` align with the dataset schema.
  */
final case class Rec(id: Int, attrs: IndexedSeq[String]) {
  def tokenSet: Set[String] = Tokenizer.recordTokens(attrs).toSet
}

final case class TestPair(rId: Int, sId: Int, label: Boolean)

/** A generated ER benchmark: two lists, gold duplicates, a DeepMatcher-style
  * labeled test split, and (for the multilingual dataset) the EN↔DE lexicon.
  * A record's id is its position in its list, checked on construction: the
  * embeddings, the probes, the pair-feature profiles and the seed sampler
  * all index records by id.
  */
final case class ERDataset(
    name: String,
    schema: IndexedSeq[String],
    r: IndexedSeq[Rec],
    s: IndexedSeq[Rec],
    dups: Set[(Int, Int)],
    testPairs: IndexedSeq[TestPair],
    germanToEnglish: Map[String, String] = Map.empty,
) {
  for ((list, recs) <- Seq("R" -> r, "S" -> s)) {
    val bad = recs.indices.find(i => recs(i).id != i)
    require(bad.isEmpty,
      s"dataset $name: the $list list's record at position ${bad.get} has id ${recs(bad.get).id}, not its position")
  }

  /** The record with this id, which is its position. */
  def rById(id: Int): Rec = r(id)
  def sById(id: Int): Rec = s(id)
  lazy val testSet: Set[(Int, Int)] = testPairs.map(p => (p.rId, p.sId)).toSet

  private def toDF(spark: SparkSession, recs: IndexedSeq[Rec]): DataFrame = {
    val fields = StructField("id", IntegerType, nullable = false) +:
      schema.map(a => StructField(a, StringType, nullable = false))
    val rows = recs.map(rec => Row.fromSeq(rec.id +: rec.attrs))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.toSeq, math.max(1, recs.size / 500)),
      StructType(fields.toArray))
  }

  def rDF(spark: SparkSession): DataFrame = toDF(spark, r)
  def sDF(spark: SparkSession): DataFrame = toDF(spark, s)
}

/** Generators for the six evaluation datasets of the DIAL paper, scaled to
  * container size (see DESIGN.md §2 and §4 for the substitution rationale
  * and scale table). All generation is deterministic in the seed.
  */
object ERDataGen {

  // ---------------------------------------------------------------- products

  private final case class PEntity(brand: String, series: String, model: String,
                                   adjs: IndexedSeq[String], noun: String, price: Double)

  /** Knobs controlling a product-dataset flavour. */
  final case class ProductKnobs(
      nR: Int, nS: Int, nDups: Int,
      corrupt: Double,        // per-token corruption prob in duplicate records
      brandMiss: Double,      // prob a duplicate loses/abbreviates its brand
      modelMiss: Double,      // prob a duplicate loses/typos its model number
      hardFrac: Double,       // fraction of non-dup S that are near-variants
      textual: Boolean,       // Abt-Buy style single-description schema
      dupsPerEntityMax: Int,
      nTest: Int,
  )

  private def typo(g: Rnd.Gen, tok: String): String = {
    if (tok.length < 3) tok
    else g.nextInt(3) match {
      case 0 => // swap adjacent chars
        val i = g.nextInt(tok.length - 1)
        tok.substring(0, i) + tok.charAt(i + 1) + tok.charAt(i) + tok.substring(i + 2)
      case 1 => // drop a char
        val i = g.nextInt(tok.length)
        tok.substring(0, i) + tok.substring(i + 1)
      case _ => // double a char
        val i = g.nextInt(tok.length)
        tok.substring(0, i + 1) + tok.charAt(i) + tok.substring(i + 1)
    }
  }

  private def corruptTokens(g: Rnd.Gen, toks: IndexedSeq[String], p: Double): IndexedSeq[String] = {
    var out = toks.flatMap { t =>
      if (!g.nextBoolean(p)) Seq(t)
      else g.nextInt(3) match {
        case 0 => Seq(typo(g, t))
        case 1 if toks.length > 3 => Seq.empty // drop token
        case _ => Seq(typo(g, t))
      }
    }
    if (g.nextBoolean(0.3) && out.length > 2) { // swap two adjacent tokens
      val i = g.nextInt(out.length - 1)
      out = out.updated(i, out(i + 1)).updated(i + 1, out(i))
    }
    out
  }

  /** Boilerplate filler sample for textual (Abt-Buy-like) descriptions.
    * The small shared vocabulary dilutes the mean-pooled record embedding —
    * the property that makes pretrained single-mode retrieval weak on long
    * textual records (paper Table 2, PairedFixed recall 33 on Abt-Buy) and
    * that a trained blocker can learn to suppress.
    */
  private def fillerSample(g: Rnd.Gen, filler: IndexedSeq[String], lo: Int, hi: Int): Seq[String] =
    Seq.fill(lo + g.nextInt(hi - lo + 1))(filler(g.nextInt(filler.length)))

  private def renderProductR(e: PEntity, textual: Boolean, g: Rnd.Gen,
                             filler: IndexedSeq[String]): IndexedSeq[String] = {
    val title = (Seq(e.brand, e.series, e.model) ++ e.adjs :+ e.noun)
    if (textual)
      IndexedSeq((title ++ fillerSample(g, filler, 14, 26)).mkString(" "), f"${e.price}%.2f")
    else
      IndexedSeq((title ++ fillerSample(g, filler, 5, 9)).mkString(" "), e.brand, f"${e.price}%.2f")
  }

  private def renderProductDup(g: Rnd.Gen, e: PEntity, k: ProductKnobs,
                               filler: IndexedSeq[String]): IndexedSeq[String] = {
    val loseBrand = g.nextBoolean(k.brandMiss)
    val brandTok =
      if (!loseBrand) Seq(e.brand)
      else if (g.nextBoolean(0.5)) Seq(e.brand.take(1)) // abbreviation
      else Seq.empty                                    // dropped entirely
    val modelTok =
      if (!g.nextBoolean(k.modelMiss)) Seq(e.model)
      else if (g.nextBoolean(0.5)) Seq(typo(g, e.model)) // garbled model number
      else Seq.empty                                     // listing without it
    val rest = (Seq(e.series) ++ e.adjs :+ e.noun).toIndexedSeq
    val titleToks = brandTok ++ modelTok ++ corruptTokens(g, rest, k.corrupt)
    val price = e.price * (1.0 + (g.nextDouble() - 0.5) * 0.06)
    if (k.textual)
      IndexedSeq((titleToks ++ fillerSample(g, filler, 14, 26)).mkString(" "), f"$price%.2f")
    else
      IndexedSeq((titleToks ++ fillerSample(g, filler, 5, 9)).mkString(" "),
                 if (loseBrand) "" else e.brand, f"$price%.2f")
  }

  private def productEntity(v: Vocab, brands: IndexedSeq[String], series: IndexedSeq[String],
                            adjs: IndexedSeq[String], nouns: IndexedSeq[String]): PEntity = {
    val g = v.gen
    PEntity(
      brand = brands(g.nextInt(brands.length)),
      series = series(g.nextInt(series.length)),
      model = v.modelNumber(),
      adjs = IndexedSeq.fill(2 + g.nextInt(3))(adjs(g.nextInt(adjs.length))),
      noun = nouns(g.nextInt(nouns.length)),
      price = 20.0 + g.nextDouble() * 480.0,
    )
  }

  /** A near-duplicate *different* product: same brand/series, different
    * model number, a couple of different descriptors, different price.
    * Hard enough that active learning selects them, but distinguishable —
    * a matcher attending to the model number and descriptors can separate
    * them (the "book edition" example of paper §2.2.1).
    */
  private def variantOf(v: Vocab, e: PEntity, adjsVocab: IndexedSeq[String],
                        nouns: IndexedSeq[String]): PEntity = {
    val g = v.gen
    val newAdjs = e.adjs.toArray
    val nSwap = math.min(2, newAdjs.length)
    (0 until nSwap).foreach { _ =>
      newAdjs(g.nextInt(newAdjs.length)) = adjsVocab(g.nextInt(adjsVocab.length))
    }
    e.copy(
      model = v.modelNumber(),
      adjs = newAdjs.toIndexedSeq,
      noun = if (g.nextBoolean(0.3)) nouns(g.nextInt(nouns.length)) else e.noun,
      price = e.price * (0.6 + g.nextDouble() * 0.8),
    )
  }

  def product(name: String, k: ProductKnobs, seed: Long): ERDataset = {
    val v = new Vocab(seed)
    val g = v.gen
    val brands = v.words(36, 2)
    val series = v.words(50, 2)
    val adjs   = v.words(70, 2)
    val nouns  = v.words(40, 2)

    val filler = v.words(25, 2)
    val entities = IndexedSeq.fill(k.nR)(productEntity(v, brands, series, adjs, nouns))
    val schema = if (k.textual) IndexedSeq("description", "price")
                 else IndexedSeq("title", "brand", "price")
    val r = entities.zipWithIndex.map { case (e, i) => Rec(i, renderProductR(e, k.textual, g, filler)) }

    val sRaw = assembleS(g, k.nR, k.nS, k.nDups, k.dupsPerEntityMax, k.hardFrac)(
      rIdx => renderProductDup(g, entities(rIdx), k, filler),
      rIdx => renderProductR(variantOf(v, entities(rIdx), adjs, nouns), k.textual, g, filler),
      () => renderProductR(productEntity(v, brands, series, adjs, nouns), k.textual, g, filler))
    finish(name, schema, r, sRaw, g, k.nTest)
  }

  // --------------------------------------------------------------- citations

  private final case class CEntity(title: IndexedSeq[String],
                                   authors: IndexedSeq[(String, String)],
                                   venue: String, year: Int)

  final case class CitationKnobs(
      nR: Int, nS: Int, nDups: Int,
      corrupt: Double,      // per-token typo rate in the duplicate's title
      truncate: Double,     // prob the duplicate's title is truncated
      venueMiss: Double,    // prob the duplicate loses its venue
      initials: Double,     // prob authors collapse to initials
      hardFrac: Double,
      dupsPerEntityMax: Int,
      nTest: Int,
  )

  private def citationEntity(v: Vocab, titleWords: IndexedSeq[String],
                             first: IndexedSeq[String], last: IndexedSeq[String],
                             venues: IndexedSeq[String]): CEntity = {
    val g = v.gen
    CEntity(
      title = IndexedSeq.fill(6 + g.nextInt(5))(titleWords(g.nextInt(titleWords.length))),
      authors = IndexedSeq.fill(2 + g.nextInt(3))((first(g.nextInt(first.length)), last(g.nextInt(last.length)))),
      venue = venues(g.nextInt(venues.length)),
      year = 1995 + g.nextInt(16),
    )
  }

  private def renderCitationR(e: CEntity, g: Rnd.Gen,
                              filler: IndexedSeq[String]): IndexedSeq[String] = IndexedSeq(
    (e.title ++ fillerSample(g, filler, 3, 6)).mkString(" "),
    e.authors.map { case (f, l) => s"$f $l" }.mkString(" , "),
    e.venue,
    e.year.toString,
  )

  private def renderCitationDup(g: Rnd.Gen, e: CEntity, k: CitationKnobs,
                                filler: IndexedSeq[String]): IndexedSeq[String] = {
    var title = e.title
    if (g.nextBoolean(k.truncate) && title.length > 4)
      title = title.dropRight(1 + g.nextInt(3))
    val titleStr = (corruptTokens(g, title, k.corrupt) ++ fillerSample(g, filler, 3, 6)).mkString(" ")
    val auth =
      if (g.nextBoolean(k.initials))
        e.authors.map { case (f, l) => s"${f.take(1)} $l" }.mkString(" , ")
      else e.authors.map { case (f, l) => s"$f $l" }.mkString(" , ")
    val venue = if (g.nextBoolean(k.venueMiss)) "" else
      (if (g.nextBoolean(0.4)) e.venue.split(" ").map(_.take(1)).mkString else e.venue)
    val year = if (g.nextBoolean(0.15)) "" else e.year.toString
    IndexedSeq(titleStr, auth, venue, year)
  }

  /** An edition/variation-style hard negative: the same authors and venue,
    * but a few changed title words and a different year — related work by
    * the same group rather than the same paper. Distinguishable by title
    * similarity, which is what keeps matcher precision attainable.
    */
  private def citationVariant(v: Vocab, e: CEntity, titleWords: IndexedSeq[String]): CEntity = {
    val g = v.gen
    var title = e.title
    val nSwap = math.min(3, title.length - 1)
    (0 until nSwap).foreach { _ =>
      title = title.updated(g.nextInt(title.length), titleWords(g.nextInt(titleWords.length)))
    }
    e.copy(title = title, year = e.year + 1 + g.nextInt(3))
  }

  def citation(name: String, k: CitationKnobs, seed: Long): ERDataset = {
    val v = new Vocab(seed)
    val g = v.gen
    val titleWords = v.words(240, 3)
    val first = v.words(90, 2)
    val last  = v.words(90, 3)
    val venues = v.words(12, 2).zip(v.words(12, 3)).map { case (a, b) => s"$a $b conf" }
    val filler = v.words(18, 2)

    val entities = IndexedSeq.fill(k.nR)(citationEntity(v, titleWords, first, last, venues))
    val schema = IndexedSeq("title", "authors", "venue", "year")
    val r = entities.zipWithIndex.map { case (e, i) => Rec(i, renderCitationR(e, g, filler)) }

    val sRaw = assembleS(g, k.nR, k.nS, k.nDups, k.dupsPerEntityMax, k.hardFrac)(
      rIdx => renderCitationDup(g, entities(rIdx), k, filler),
      rIdx => renderCitationR(citationVariant(v, entities(rIdx), titleWords), g, filler),
      () => renderCitationR(citationEntity(v, titleWords, first, last, venues), g, filler))
    finish(name, schema, r, sRaw, g, k.nTest)
  }

  // ------------------------------------------------------------ multilingual

  /** English–pseudo-German parallel corpus in the style of Hashimoto et al.:
    * natural-language strings with occasional XML tags and numbers, aligned
    * one-to-one (|DUPS| = |R| = |S|). The German side is a deterministic
    * word-level mapping of the English side; cross-lingual co-location is
    * provided (imperfectly) by the simulated mBERT prior in
    * [[repro.text.HashEmbedding]].
    */
  def multilingual(n: Int, nTest: Int, seed: Long): ERDataset = {
    val v = new Vocab(seed)
    val g = v.gen
    val enWords = v.words(800, 2)
    val dict: Map[String, String] = enWords.map(w => w -> Vocab.pseudoGerman(w)).toMap
    require(dict.values.toSet.size == dict.size, "pseudo-German mapping collided")
    val tags = IndexedSeq("<b>", "</b>", "<ref>", "</ref>", "<code>", "</code>")

    def sentence(): IndexedSeq[String] = {
      val len = 8 + g.nextInt(9)
      val base = IndexedSeq.fill(len) {
        if (g.nextBoolean(0.06)) (100 + g.nextInt(9900)).toString
        else enWords(g.nextInt(enWords.length))
      }
      if (g.nextBoolean(0.25)) {
        val t = g.nextInt(tags.length / 2) * 2
        val i = g.nextInt(base.length)
        (base.take(i) :+ tags(t)) ++ base.drop(i) :+ tags(t + 1)
      } else base
    }

    def toGerman(en: IndexedSeq[String]): IndexedSeq[String] = {
      var out = en.map(w => dict.getOrElse(w, w)) // tags/numbers unchanged
      if (g.nextBoolean(0.35) && out.length > 3) {
        val i = g.nextInt(out.length - 1)
        out = out.updated(i, out(i + 1)).updated(i + 1, out(i))
      }
      out
    }

    val english = IndexedSeq.fill(n)(sentence())
    val r = english.zipWithIndex.map { case (sen, i) => Rec(i, IndexedSeq(sen.mkString(" "))) }
    val sRecsRaw = english.zipWithIndex.map { case (sen, i) => (IndexedSeq(toGerman(sen).mkString(" ")), i) }
    val germanToEnglish = dict.map(_.swap)
    finish("MultiLingual", IndexedSeq("content"), r, sRecsRaw, g, nTest,
           germanToEnglish = germanToEnglish)
  }

  // ------------------------------------------------------------ finalisation

  /** The S side of a product or citation dataset before [[finish]] shuffles
    * it, as (attrs, R index or -1). `nDups` duplicates go to the R entities
    * in shuffled order, 1 to `dupsPerEntityMax` each (`dup`); then
    * `hardFrac` of the remaining slots hold near-variants of random R
    * entities (`variant`); fresh entities (`fresh`) fill S up to `nS`.
    */
  private def assembleS(g: Rnd.Gen, nR: Int, nS: Int, nDups: Int, dupsPerEntityMax: Int,
                        hardFrac: Double)(
      dup: Int => IndexedSeq[String], variant: Int => IndexedSeq[String],
      fresh: () => IndexedSeq[String]): IndexedSeq[(IndexedSeq[String], Int)] = {
    val order = g.permutation(nR)
    val out = scala.collection.mutable.ArrayBuffer.empty[(IndexedSeq[String], Int)]
    var di = 0; var made = 0
    while (made < nDups) {
      val rIdx = order(di % nR)
      val copies = math.min(1 + g.nextInt(dupsPerEntityMax), nDups - made)
      var c = 0
      while (c < copies) { out += ((dup(rIdx), rIdx)); c += 1 }
      made += copies; di += 1
    }
    val nHard = ((nS - out.size) * hardFrac).toInt
    var i = 0
    while (i < nHard) { out += ((variant(g.nextInt(nR)), -1)); i += 1 }
    while (out.size < nS) out += ((fresh(), -1))
    out.toIndexedSeq
  }

  /** Shuffle the S side, assign ids, derive DUPS, and carve a DeepMatcher-style
    * test split: ~25% positives, negatives split between hard (token-sharing)
    * and random pairs. Test pairs never overlap DUPS labels incorrectly by
    * construction.
    */
  private def finish(name: String, schema: IndexedSeq[String], r: IndexedSeq[Rec],
                     sRaw: IndexedSeq[(IndexedSeq[String], Int)], g: Rnd.Gen, nTest: Int,
                     germanToEnglish: Map[String, String] = Map.empty): ERDataset = {
    val perm = g.permutation(sRaw.length)
    val s = perm.toIndexedSeq.zipWithIndex.map { case (src, sId) => Rec(sId, sRaw(src)._1) }
    val dups: Set[(Int, Int)] = perm.toIndexedSeq.zipWithIndex.collect {
      case (src, sId) if sRaw(src)._2 >= 0 => (sRaw(src)._2, sId)
    }.toSet

    // token → R ids inverted index for hard-negative sampling
    val inv = scala.collection.mutable.HashMap.empty[String, List[Int]]
    r.foreach { rec =>
      rec.tokenSet.foreach(t => inv(t) = rec.id :: inv.getOrElse(t, Nil))
    }

    val dupSeq = dups.toIndexedSeq.sorted
    // DeepMatcher-style splits hold out ~20% of the duplicates
    val nPos = math.min(nTest / 4, dupSeq.size / 5)
    val posIdx = g.sampleDistinct(dupSeq.size, nPos).map(dupSeq)
    val taken = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    posIdx.foreach(taken += _)
    val test = scala.collection.mutable.ArrayBuffer.empty[TestPair]
    posIdx.foreach { case (a, b) => test += TestPair(a, b, label = true) }

    val nNeg = nTest - test.size
    var made = 0
    var attempts = 0
    while (made < nNeg && attempts < nNeg * 50) {
      attempts += 1
      val sRec = s(g.nextInt(s.length))
      val hard = g.nextBoolean(0.5)
      val rIdOpt =
        if (hard) {
          val toks = sRec.tokenSet.toIndexedSeq
          if (toks.isEmpty) None
          else inv.get(toks(g.nextInt(toks.length))).flatMap { ids =>
            if (ids.isEmpty) None else Some(ids(g.nextInt(ids.length)))
          }
        } else Some(g.nextInt(r.length))
      rIdOpt match {
        case Some(rId) if !dups.contains((rId, sRec.id)) && !taken.contains((rId, sRec.id)) =>
          taken += ((rId, sRec.id))
          test += TestPair(rId, sRec.id, label = false)
          made += 1
        case _ => ()
      }
    }
    ERDataset(name, schema, r, s, dups, test.toIndexedSeq, germanToEnglish)
  }

  // ------------------------------------------------------- the six datasets

  /** Scale multiplier (1.0 = DESIGN.md defaults). Tests use smaller scales. */
  def walmartAmazon(seed: Long = 11, scale: Double = 1.0): ERDataset =
    product("Walmart-Amazon", ProductKnobs(
      nR = sc(600, scale), nS = sc(4400, scale), nDups = sc(290, scale),
      corrupt = 0.25, brandMiss = 0.30, modelMiss = 0.30, hardFrac = 0.35,
      textual = false, dupsPerEntityMax = 1, nTest = sc(500, scale)), seed)

  def amazonGoogle(seed: Long = 12, scale: Double = 1.0): ERDataset =
    product("Amazon-Google", ProductKnobs(
      nR = sc(680, scale), nS = sc(1600, scale), nDups = sc(650, scale),
      corrupt = 0.30, brandMiss = 0.20, modelMiss = 0.55, hardFrac = 0.45,
      textual = false, dupsPerEntityMax = 2, nTest = sc(570, scale)), seed)

  def abtBuy(seed: Long = 13, scale: Double = 1.0): ERDataset =
    product("Abt-Buy", ProductKnobs(
      nR = sc(540, scale), nS = sc(550, scale), nDups = sc(548, scale),
      corrupt = 0.40, brandMiss = 0.30, modelMiss = 0.45, hardFrac = 0.5,
      textual = true, dupsPerEntityMax = 1, nTest = sc(480, scale)), seed)

  def dblpAcm(seed: Long = 14, scale: Double = 1.0): ERDataset =
    citation("DBLP-ACM", CitationKnobs(
      nR = sc(1300, scale), nS = sc(1150, scale), nDups = sc(1110, scale),
      corrupt = 0.05, truncate = 0.05, venueMiss = 0.10, initials = 0.30,
      hardFrac = 0.3, dupsPerEntityMax = 1, nTest = sc(620, scale)), seed)

  def dblpScholar(seed: Long = 15, scale: Double = 1.0): ERDataset =
    citation("DBLP-Scholar", CitationKnobs(
      nR = sc(1300, scale), nS = sc(8000, scale), nDups = sc(1340, scale),
      corrupt = 0.15, truncate = 0.35, venueMiss = 0.45, initials = 0.55,
      hardFrac = 0.15, dupsPerEntityMax = 2, nTest = sc(720, scale)), seed)

  def multilingualDefault(seed: Long = 16, scale: Double = 1.0): ERDataset =
    multilingual(sc(2500, scale), sc(500, scale), seed)

  private def sc(n: Int, scale: Double): Int = math.max(8, (n * scale).toInt)

  /** The five benchmark datasets in paper order. */
  def benchmarks(scale: Double = 1.0): IndexedSeq[ERDataset] = IndexedSeq(
    walmartAmazon(scale = scale), amazonGoogle(scale = scale), dblpAcm(scale = scale),
    dblpScholar(scale = scale), abtBuy(scale = scale))
}
