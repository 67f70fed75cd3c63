package repro.core.discovery

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.DirtyData

/** The discovery runs pinned by `src/test/resources/golden/discovery.txt`:
  * T1–T15 at scale 0.1 (single-LHS), the level-2 lattice on T7 ×0.3 and
  * T3 ×1.0, and Example 8. Each run renders as a `## name` header followed
  * by one line per discovered dependency: its summary and its full PFD.
  *
  * Regenerate the file (only when a change of discovery output is intended)
  * with `sbt "Test/runMain repro.core.discovery.DiscoveryGolden
  * src/test/resources/golden/discovery.txt"`.
  */
object DiscoveryGolden {

  /** §5.1 parameters: coverage 10 %, noise 5 %, support K = 5. */
  private val paper = Params(minSupport = 5, noise = 0.05, minCoverage = 0.10)

  final case class Run(name: String, table: SparkSession => DataFrame, params: Params)

  /** Table 6 of the paper (Example 8). */
  def table6(spark: SparkSession): DataFrame = {
    import spark.implicits._
    Seq(
      ("Tayseer Fahmi", "Egypt", "F"), ("Tayseer Qasem", "Yemen", "M"),
      ("Tayseer Salem", "Egypt", "F"), ("Tayseer Saeed", "Yemen", "M"),
      ("Noor Wagdi", "Egypt", "M"), ("Noor Shadi", "Yemen", "F"),
      ("Noor Hisham", "Egypt", "M"), ("Noor Hashim", "Yemen", "F"),
      ("Esmat Qadhi", "Yemen", "M"), ("Esmat Farahat", "Egypt", "F"))
      .toDF("name", "country", "gender")
  }

  val runs: Seq[Run] =
    (1 to 15).map(id => Run(s"T$id scale=0.1 seed=0 maxLhs=1",
                            DirtyData.table(_, id, 0.1, seed = 0).df, paper)) ++
    Seq(
      Run("T7 scale=0.3 seed=0 maxLhs=2", DirtyData.table(_, 7, 0.3, seed = 0).df,
          paper.copy(maxLhs = 2)),
      Run("T3 scale=1.0 seed=0 maxLhs=2", DirtyData.table(_, 3, 1.0, seed = 0).df,
          paper.copy(maxLhs = 2)),
      Run("Example 8 K=2 maxLhs=2", table6,
          Params(minSupport = 2, noise = 0.05, minCoverage = 0.10, maxLhs = 2,
                 maxRhsCover = 1.01)))

  /** The rendered lines of one run's discovery output. */
  def render(deps: Seq[DiscoveredDep]): Seq[String] =
    deps.map(d => s"${d.render} :: ${d.pfd.render}")

  /** Discover on `df` and render, caching the input for the call. */
  def renderRun(df: DataFrame, params: Params): Seq[String] = {
    val cached = df.cache()
    try render(Discovery.discover(cached, params).deps)
    finally cached.unpersist(blocking = true)
  }

  def renderAll(spark: SparkSession): String =
    runs.flatMap(r => s"## ${r.name}" +: renderRun(r.table(spark), r.params))
      .mkString("", "\n", "\n")

  def main(args: Array[String]): Unit = {
    require(args.length == 1, "usage: DiscoveryGolden <output file>")
    val text = renderAll(repro.SparkSpec.shared)
    Files.write(Paths.get(args(0)), text.getBytes(StandardCharsets.UTF_8))
    repro.SparkSpec.shared.stop()
  }
}
