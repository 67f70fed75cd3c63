package repro.core.discovery

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.PFDCheck
import repro.core.detect.ErrorDetector
import repro.data.DirtyData

/** The discovery runs pinned by `src/test/resources/golden/discovery.txt`:
  * T1–T15 at scale 0.1 (single-LHS), the level-2 lattice on T7 ×0.3 and
  * T3 ×1.0, and Example 8. Each run renders as a `## name` header followed
  * by one line per discovered dependency: its summary and its full PFD.
  * `golden/detection.txt` pins, under the same headers, the cells that
  * [[repro.core.detect.ErrorDetector]] flags with each run's discovered
  * dependencies: one `tid attr dep` line per cell, sorted.
  *
  * Regenerate both files (only when a change of output is intended) with
  * `sbt "Test/runMain repro.core.discovery.DiscoveryGolden
  * src/test/resources/golden"`.
  */
object DiscoveryGolden {

  /** §5.1 parameters: coverage 10 %, noise 5 %, support K = 5. */
  private val paper = Params(minSupport = 5, noise = 0.05, minCoverage = 0.10)

  final case class Run(name: String, table: SparkSession => DataFrame, params: Params)

  private val table6Rows = Seq(
    ("Tayseer Fahmi", "Egypt", "F"), ("Tayseer Qasem", "Yemen", "M"),
    ("Tayseer Salem", "Egypt", "F"), ("Tayseer Saeed", "Yemen", "M"),
    ("Noor Wagdi", "Egypt", "M"), ("Noor Shadi", "Yemen", "F"),
    ("Noor Hisham", "Egypt", "M"), ("Noor Hashim", "Yemen", "F"),
    ("Esmat Qadhi", "Yemen", "M"), ("Esmat Farahat", "Egypt", "F"))

  /** Table 6 of the paper (Example 8), without tids. */
  def table6(spark: SparkSession): DataFrame = {
    import spark.implicits._
    table6Rows.toDF("name", "country", "gender")
  }

  /** Table 6 with its row numbers as tids, so that the cells detection
    * flags on it do not depend on the machine's parallelism.
    */
  def table6WithTids(spark: SparkSession): DataFrame = {
    import spark.implicits._
    table6Rows.zipWithIndex.map { case ((n, c, g), i) => (i.toLong, n, c, g) }
      .toDF(PFDCheck.TidCol, "name", "country", "gender")
  }

  val runs: Seq[Run] =
    (1 to 15).map(id => Run(s"T$id scale=0.1 seed=0 maxLhs=1",
                            DirtyData.table(_, id, 0.1, seed = 0).df, paper)) ++
    Seq(
      Run("T7 scale=0.3 seed=0 maxLhs=2", DirtyData.table(_, 7, 0.3, seed = 0).df,
          paper.copy(maxLhs = 2)),
      Run("T3 scale=1.0 seed=0 maxLhs=2", DirtyData.table(_, 3, 1.0, seed = 0).df,
          paper.copy(maxLhs = 2)),
      Run("Example 8 K=2 maxLhs=2", table6WithTids,
          Params(minSupport = 2, noise = 0.05, minCoverage = 0.10, maxLhs = 2,
                 maxRhsCover = 1.01)))

  /** The rendered lines of one run's discovery output. */
  def render(deps: Seq[DiscoveredDep]): Seq[String] =
    deps.map(d => s"${d.render} :: ${d.pfd.render}")

  /** One run's rendered output: discovery lines and flagged-cell lines. */
  final case class Rendered(discovery: Seq[String], detection: Seq[String])

  /** Discover on `df`, detect with the discovered dependencies and render
    * both, caching the input for the calls.
    */
  def renderRun(df: DataFrame, params: Params): Rendered = {
    val cached = df.cache()
    try {
      val deps = Discovery.discover(cached, params).deps
      val cells = ErrorDetector.detect(cached, deps).select(PFDCheck.TidCol, "attr", "dep")
        .collect().map(r => (r.getLong(0), r.getString(1), r.getString(2))).sorted
      Rendered(render(deps), cells.map { case (tid, attr, dep) => s"$tid $attr $dep" }.toSeq)
    } finally cached.unpersist(blocking = true)
  }

  def main(args: Array[String]): Unit = {
    require(args.length == 1, "usage: DiscoveryGolden <output directory>")
    val spark = repro.SparkSpec.shared
    val rendered = runs.map(r => r.name -> renderRun(r.table(spark), r.params))
    def write(file: String, lines: Rendered => Seq[String]): Unit = {
      val text = rendered.flatMap { case (name, r) => s"## $name" +: lines(r) }
        .mkString("", "\n", "\n")
      Files.write(Paths.get(args(0), file), text.getBytes(StandardCharsets.UTF_8))
    }
    write("discovery.txt", _.discovery)
    write("detection.txt", _.detection)
    spark.stop()
  }
}
