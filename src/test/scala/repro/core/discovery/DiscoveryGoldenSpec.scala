package repro.core.discovery

import scala.io.{Codec, Source}
import repro.SparkSpec

/** Discovery output is pinned: every run of [[DiscoveryGolden]] must render
  * exactly the lines of `golden/discovery.txt`.
  */
class DiscoveryGoldenSpec extends SparkSpec {

  private lazy val golden: Map[String, Seq[String]] = {
    val src = Source.fromResource("golden/discovery.txt", getClass.getClassLoader)(Codec.UTF8)
    val lines = try src.getLines().toVector finally src.close()
    val headers = lines.zipWithIndex.filter(_._1.startsWith("## "))
    headers.zip(headers.drop(1).map(_._2) :+ lines.size).map { case ((h, i), end) =>
      h.stripPrefix("## ") -> lines.slice(i + 1, end)
    }.toMap
  }

  DiscoveryGolden.runs.foreach { run =>
    test(s"golden discovery output: ${run.name}") {
      val expected = golden.getOrElse(run.name, fail(s"no golden entry for ${run.name}"))
      val actual = DiscoveryGolden.renderRun(run.table(spark), run.params)
      assert(actual == expected,
        s"\n--- expected\n${expected.mkString("\n")}\n--- actual\n${actual.mkString("\n")}")
    }
  }
}
