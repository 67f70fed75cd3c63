package repro.core.discovery

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.PFDCheck
import repro.data.DirtyData

/** Each lattice level is one mining query: the number of Spark jobs a
  * discovery runs does not grow with the number of attributes (level 1) or
  * of conditioning slices (level 2).
  */
class DiscoveryJobsSpec extends SparkSpec {

  private val paper = Params(minSupport = 5, noise = 0.05, minCoverage = 0.10,
                             generalize = false)

  /** Spark jobs started by `discover(df, params)` on a caller-cached input. */
  private def jobs(df: DataFrame, params: Params): Int = {
    val sc = spark.sparkContext
    val started = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    val cached = df.cache()
    cached.count()
    ListenerBusDrain.drain(sc)
    sc.addSparkListener(listener)
    try {
      Discovery.discover(cached, params)
      ListenerBusDrain.drain(sc)
      started.get
    } finally {
      sc.removeSparkListener(listener)
      cached.unpersist(blocking = true)
    }
  }

  private def columns(t: DataFrame, cols: Seq[String]): DataFrame =
    t.select((PFDCheck.TidCol +: cols).map(col): _*)

  test("level 1 runs as many jobs on 6 qualitative columns as on 3") {
    // T4: zip directory, every column qualitative
    val t4 = DirtyData.table(spark, 4, 0.3, seed = 0).df
    val three = columns(t4, Seq("zip", "city", "state"))
    val six = columns(t4, Seq("zip", "city", "state", "county", "area_code", "region"))
    assert(Profiler.profile(six).count(_.isQualitative) == 6)
    val p = paper.copy(maxLhs = 1)
    assert(jobs(three, p) == jobs(six, p))
  }

  test("level 2 runs as many jobs with 4 conditioning values per attribute as with 1") {
    val t7 = columns(DirtyData.table(spark, 7, 0.5, seed = 0).df,
                     Seq("assay_type", "type_desc", "organism"))
    val p = paper.copy(maxLhs = 2)
    val one = jobs(t7, p.copy(maxConditionValues = 1))
    // level 2 ran at all: it adds jobs to level 1
    assert(one > jobs(t7, p.copy(maxLhs = 1)))
    assert(jobs(t7, p.copy(maxConditionValues = 4)) == one)
  }
}
