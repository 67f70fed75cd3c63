package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.PFDCheck
import repro.data.DirtyData

/** Discovery output, and the cells detection flags with it, depend on the
  * data only: not on the number of shuffle partitions, the input's
  * partitioning or its row order (tids kept).
  */
class DiscoveryInvarianceSpec extends SparkSpec {

  private val params = Params(minSupport = 5, noise = 0.05, minCoverage = 0.10, maxLhs = 2)
  private lazy val t7 = DirtyData.table(spark, 7, 0.3, seed = 0).df
  private lazy val reference = DiscoveryGolden.renderRun(t7, params)

  private def withShufflePartitions[T](n: Int)(f: => T): T = {
    val key = "spark.sql.shuffle.partitions"
    val old = spark.conf.get(key)
    spark.conf.set(key, n.toLong)
    try f finally spark.conf.set(key, old)
  }

  test("the reference run finds variable and multi-LHS dependencies") {
    assert(reference.discovery.exists(_.contains("[variable]")))
    assert(reference.discovery.exists(_.takeWhile(_ != ' ').contains(",")))
  }
  Seq(1, 8, 64).foreach { n =>
    test(s"output is identical under spark.sql.shuffle.partitions=$n") {
      assert(withShufflePartitions(n)(DiscoveryGolden.renderRun(t7, params)) == reference)
    }
  }
  Seq[(String, DataFrame => DataFrame)](
    "reversed" -> (_.orderBy(col(PFDCheck.TidCol).desc)),
    "repartitioned" -> (_.repartition(7, col("organism")))
  ).foreach { case (name, f) =>
    test(s"output is identical on a $name input that keeps __tid") {
      assert(DiscoveryGolden.renderRun(f(t7), params) == reference)
    }
  }
}
