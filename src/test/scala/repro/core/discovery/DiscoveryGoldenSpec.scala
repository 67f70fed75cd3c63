package repro.core.discovery

import scala.io.{Codec, Source}
import repro.SparkSpec

/** Discovery and detection output are pinned: every run of
  * [[DiscoveryGolden]] must render exactly the lines of
  * `golden/discovery.txt` and `golden/detection.txt`.
  */
class DiscoveryGoldenSpec extends SparkSpec {

  private def golden(file: String): Map[String, Seq[String]] = {
    val src = Source.fromResource(s"golden/$file", getClass.getClassLoader)(Codec.UTF8)
    val lines = try src.getLines().toVector finally src.close()
    val headers = lines.zipWithIndex.filter(_._1.startsWith("## "))
    headers.zip(headers.drop(1).map(_._2) :+ lines.size).map { case ((h, i), end) =>
      h.stripPrefix("## ") -> lines.slice(i + 1, end)
    }.toMap
  }

  private lazy val discovery = golden("discovery.txt")
  private lazy val detection = golden("detection.txt")

  private def check(what: String, pinned: Map[String, Seq[String]], name: String,
                    actual: Seq[String]): Unit = {
    val expected = pinned.getOrElse(name, fail(s"no golden $what entry for $name"))
    assert(actual == expected, s"\n$what of $name\n--- expected\n${expected.mkString("\n")}" +
      s"\n--- actual\n${actual.mkString("\n")}")
  }

  DiscoveryGolden.runs.foreach { run =>
    test(s"golden discovery output: ${run.name}") {
      val actual = DiscoveryGolden.renderRun(run.table(spark), run.params)
      check("discovery", discovery, run.name, actual.discovery)
      check("detection", detection, run.name, actual.detection)
    }
  }
}
