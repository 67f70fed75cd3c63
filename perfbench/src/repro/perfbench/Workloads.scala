package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import scala.util.Random
import repro.core.{Pats, PFDCheck}
import repro.core.discovery.{DiscoveredDep, Params}
import repro.data.{Dep, DirtyData, Domains}

/** The table of a workload: discovery runs on `discoverDf`, detection on
  * `detectDf` (the same frame for a T1–T15 table, fresh rows for the Table-8
  * dependencies). Both frames carry `__tid` and are cached by [[Workloads.load]].
  */
final case class BenchTable(
    name: String,
    discoverDf: DataFrame,
    detectDf: DataFrame,
    discoverRows: Long,
    detectRows: Long,
    groundTruth: Set[Dep],
    /** Injected error cells (tid, attr) of the detection table. */
    injected: Set[(Long, String)],
    params: Params,
    /** Table-8 oracles for constant rules (lhs token, rhs token), by dependency. */
    ruleOracles: Map[(String, String), (String, String) => Boolean]) {

  def frames: Seq[DataFrame] =
    if (discoverDf eq detectDf) Seq(discoverDf) else Seq(discoverDf, detectDf)

  /** Discovered dependencies whose embedded dependency is genuine — the
    * simulated expert validation of §5.3, as in the Table 7 harness.
    */
  def validated(deps: Seq[DiscoveredDep]): Seq[DiscoveredDep] =
    deps.filter(d => groundTruth.contains(Dep(d.lhs.toSet, d.rhs)))
}

/** The benchmark's workloads. Every input is a function of the seed. */
object Workloads {

  /** §5.1 parameters: coverage 10 %, noise 5 %, support K = 5. */
  val paper: Params = Params(minSupport = 5, noise = 0.05, minCoverage = 0.10)

  final case class Spec(name: String, why: String, table: (SparkSession, Long) => BenchTable)

  val all: Seq[Spec] = Seq(
    Spec("multi-lhs-small",
      "T7, 812 rows, columns assay_type/type_desc/organism; discover maxLhs=2 with 1 conditioning value, then detect: level-2 lattice job cost, Generalizer, variable PFDs",
      (spark, seed) => dirty(spark, 7, seed, Seq("assay_type", "type_desc", "organism"),
        paper.copy(maxLhs = 2, maxConditionValues = 1))),
    Spec("constant-rules",
      "Table-8 deps full_name->gender and fax->state in one table: constant PFDs on 2000 rows, detect on 100000 fresh rows: n-gram tokenizer, constant-tableau detection",
      (spark, seed) => constantRules(spark, seed, discoverRows = 2000, detectRows = 100000)))

  /** Build the workload's table and cache its frames. */
  def load(spark: SparkSession, spec: Spec, seed: Long): BenchTable = {
    val t = spec.table(spark, seed)
    t.frames.foreach { f => f.cache(); f.count() }
    t
  }

  def unload(t: BenchTable): Unit = t.frames.foreach(_.unpersist(true))

  /** Table T`id` of [[DirtyData]] at paper size, restricted to `cols`, with
    * the ground truth and injected errors that fall inside them.
    */
  private def dirty(spark: SparkSession, id: Int, seed: Long, cols: Seq[String],
                    params: Params): BenchTable = {
    val t = DirtyData.table(spark, id, 1.0, seed)
    val df = t.df.select((PFDCheck.TidCol +: cols).map(col): _*)
    BenchTable(t.name, df, df, t.nRows, t.nRows,
               t.groundTruth.filter(d => (d.lhs + d.rhs).subsetOf(cols.toSet)),
               t.errorCellSet.filter { case (_, a) => cols.contains(a) }, params, Map.empty)
  }

  // ------------------------------------------------------------------
  // Table-8 dependencies: column pairs drawn from the Domains maps, with
  // every injected error cell recorded.
  // ------------------------------------------------------------------

  /** A two-column row generator: (lhs value, rhs value, rhs was corrupted). */
  private type Gen = Random => (String, String, Boolean)

  private def pick[T](rnd: Random, xs: Seq[T]): T = xs(rnd.nextInt(xs.size))

  private def other(rnd: Random, pool: Seq[String], v: String): String =
    pick(rnd, pool.filterNot(_ == v))

  /** Full name → gender; unisex first names carry a random gender (the
    * paper's FP source), 1 % of genders are flipped.
    */
  private val nameGender: Gen = rnd => {
    val unisex = rnd.nextDouble() < 0.06
    val (first, g) =
      if (unisex) (pick(rnd, Domains.unisexFirst), if (rnd.nextBoolean()) "M" else "F")
      else if (rnd.nextBoolean()) (pick(rnd, Domains.maleFirst), "M")
      else (pick(rnd, Domains.femaleFirst), "F")
    val flip = rnd.nextDouble() < 0.01
    (s"$first ${pick(rnd, Domains.lastNames)}", if (flip) other(rnd, Seq("M", "F"), g) else g, flip)
  }

  /** Fax → state; 2 % branch faxes belong to another state. */
  private val faxState: Gen = rnd => {
    val (area, st) = pick(rnd, Domains.areaCodes)
    val branch = rnd.nextDouble() < 0.02
    (area + Seq.fill(7)(rnd.nextInt(10)).mkString,
     if (branch) other(rnd, Domains.states, st) else st, branch)
  }

  /** Two of the three Table-8 dependencies, as column pairs of one table
    * whose rows draw each pair independently. Zip → city, the smallest
    * tableau of the three, is left out so that one run fits its time budget.
    */
  private val pairs: Seq[(String, String, Gen, (String, String) => Boolean)] = Seq(
    ("full_name", "gender", nameGender, (tok, g) => Domains.genderOf(tok).contains(g)),
    ("fax", "state", faxState, (tok, st) => Domains.areaToState.get(tok.take(3)).contains(st)))

  /** `n` rows of the pairs table and its injected (tid, attr) cells. */
  private def pairTable(spark: SparkSession, n: Int, rnd: Random): (DataFrame, Set[(Long, String)]) = {
    val rows = IndexedSeq.fill(n)(pairs.map(_._3(rnd)))
    val schema = StructType(StructField(PFDCheck.TidCol, LongType, nullable = false) +:
      pairs.flatMap { case (a, b, _, _) => Seq(StructField(a, StringType), StructField(b, StringType)) })
    val data = rows.zipWithIndex.map { case (r, i) =>
      Row.fromSeq(i.toLong +: r.flatMap { case (x, y, _) => Seq(x, y) }) }
    val df = spark.createDataFrame(
      spark.sparkContext.parallelize(data, math.max(8, n / 6250)), schema)
    val injected = for {
      (r, i) <- rows.zipWithIndex
      ((_, _, dirty), (_, b, _, _)) <- r.zip(pairs) if dirty
    } yield (i.toLong, b)
    (df, injected.toSet)
  }

  private def constantRules(spark: SparkSession, seed: Long, discoverRows: Int,
                            detectRows: Int): BenchTable = {
    val rnd = new Random(seed)
    val (disc, _) = pairTable(spark, discoverRows, rnd)
    val (det, injected) = pairTable(spark, detectRows, rnd)
    BenchTable("table8", disc, det, discoverRows, detectRows,
               pairs.map { case (a, b, _, _) => Dep(Set(a), b) }.toSet, injected,
               paper.copy(generalize = false), pairs.map { case (a, b, _, o) => (a, b) -> o }.toMap)
  }

  /** The literal LHS/RHS tokens of a constant tableau row (Table 8 rules). */
  def ruleTokens(d: DiscoveredDep): Seq[(String, String)] = {
    def token(c: repro.core.Cell): Option[String] = c match {
      case Pats(alts) => alts.headOption.flatMap(_.constrained.literalValue)
      case _          => None
    }
    d.pfd.tableau.flatMap { tp =>
      for (l <- token(tp.lhsCells(d.lhs.head)); r <- token(tp.rhsCells(d.rhs))) yield (l, r)
    }
  }
}
