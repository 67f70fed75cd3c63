package repro.core.detect

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.discovery.DiscoveredDep

/** Error detection with validated PFDs (§5.3): the cells that
  * [[PFDCheck.violations]] flags for each dependency.
  *
  * Constant PFDs flag single tuples: t matches a tableau row's LHS patterns
  * but t[B] fails the row's RHS pattern. One whole-tableau UDF per
  * dependency keeps this to a single DataFrame scan.
  *
  * Variable PFDs flag pair-wise disagreement: within a group of tuples that
  * are LHS-equivalent, the tuples deviating from the strict-majority RHS key
  * are flagged (the majority is the inferred correct value — the paper's
  * "the PFD will change t[B] according to the PFD").
  *
  * Output columns: `__tid`, `attr` (the flagged RHS cell), `value`, `dep`.
  */
object ErrorDetector {

  def detect(df0: DataFrame, deps: Seq[DiscoveredDep]): DataFrame = {
    val df = PFDCheck.withTid(df0)
    if (deps.isEmpty) {
      val spark = df.sparkSession
      import spark.implicits._
      Seq.empty[(Long, String, String, String)].toDF(PFDCheck.TidCol, "attr", "value", "dep")
    } else deps.map { d =>
      PFDCheck.violations(df, d.pfd)
        .select(col(PFDCheck.TidCol), col("attr"), col("value"), lit(d.render) as "dep")
    }.reduce(_ unionByName _).distinct()
  }
}
