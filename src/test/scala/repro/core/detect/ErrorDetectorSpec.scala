package repro.core.detect

import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.core._
import repro.core.discovery.DiscoveredDep

class ErrorDetectorSpec extends SparkSpec {

  private def p(src: String): Pattern = Pattern.parse(src)

  private def constDep(tableau: Seq[(String, String)]): DiscoveredDep = {
    val rows = tableau.map { case (first, g) =>
      PTuple(
        Map("name" -> Cell(ConstrainedPattern.constant(Pattern.Empty, first, p("\\ \\A*")))),
        Map("gender" -> Cell(ConstrainedPattern.wholeLiteral(g))))
    }
    DiscoveredDep(Seq("name"), "gender", PFD(Seq("name"), Seq("gender"), rows),
      isVariable = false, coverage = 1.0, tableauSize = rows.size)
  }

  private val varDep: DiscoveredDep = DiscoveredDep(
    Seq("name"), "gender",
    PFD(Seq("name"), Seq("gender"), Seq(PTuple(
      Map("name" -> Cell(ConstrainedPattern(Pattern.Empty, p("\\LU\\LL*"), p("\\ \\A*")))),
      Map("gender" -> Wildcard)))),
    isVariable = true, coverage = 1.0, tableauSize = 1)

  test("constant PFDs flag single-tuple violations with the tid and attr") {
    import spark.implicits._
    val df = Seq(("John Charles", "M"), ("Susan Boyle", "M"), ("Susan Orlean", "F"))
      .toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(constDep(Seq("John" -> "M", "Susan" -> "F"))))
      .collect()
    assert(v.length == 1)
    assert(v.head.getAs[Long](PFDCheck.TidCol) == 1L)
    assert(v.head.getAs[String]("attr") == "gender")
    assert(v.head.getAs[String]("value") == "M")
  }
  test("constant detection scans the whole tableau in one pass") {
    import spark.implicits._
    val df = Seq(("John X", "F"), ("Susan Y", "M"), ("Mary Z", "F")).toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(constDep(Seq("John" -> "M", "Susan" -> "F"))))
      .select(PFDCheck.TidCol).collect().map(_.getLong(0)).toSet
    assert(v == Set(0L, 1L)) // Mary matches no tableau row
  }
  test("variable PFDs flag the strict minority of a disagreeing group") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan B", "F"), ("Susan C", "M"),
                 ("John D", "M")).toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(varDep)).collect()
    assert(v.map(_.getAs[Long](PFDCheck.TidCol)).toSet == Set(2L))
  }
  test("variable PFDs flag nothing on a tie (no safe repair)") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan C", "M")).toDF("name", "gender")
    assert(ErrorDetector.detect(df, Seq(varDep)).isEmpty)
  }
  test("variable PFDs ignore singleton groups") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("John D", "M")).toDF("name", "gender")
    assert(ErrorDetector.detect(df, Seq(varDep)).isEmpty)
  }
  test("multiple dependencies union their violations distinctly") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan B", "F"), ("Susan C", "M")).toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(varDep, constDep(Seq("Susan" -> "F"))))
      .select(PFDCheck.TidCol, "attr").distinct().collect()
    assert(v.map(_.getLong(0)).toSet == Set(2L))
  }
  test("empty dependency list flags nothing") {
    import spark.implicits._
    val df = Seq(("a", "b")).toDF("name", "gender")
    assert(ErrorDetector.detect(df, Seq.empty).isEmpty)
  }
  test("null cells never match and are flagged when the LHS fires") {
    import spark.implicits._
    val df = Seq(("John X", null), ("John Y", "M")).toDF("name", "gender")
    val v = ErrorDetector.detect(df, Seq(constDep(Seq("John" -> "M")))).collect()
    assert(v.map(_.getAs[Long](PFDCheck.TidCol)).toSet == Set(0L))
  }
  test("Oracle cross-check: constant-PFD violations equal a SQL predicate") {
    import spark.implicits._
    val df = Seq(("John Charles", "M"), ("John Boyle", "F"), ("Susan Orlean", "F"),
                 ("Susan Kim", "M"), ("Mary Poppins", "F")).toDF("name", "gender")
    val flagged = ErrorDetector.detect(df, Seq(constDep(Seq("John" -> "M", "Susan" -> "F"))))
      .groupBy().agg(count(lit(1)).cast("long") as "violations")
    repro.Oracle.assertEquivalent(
      flagged,
      """SELECT count(*)::VARCHAR AS violations FROM t
        |WHERE (regexp_full_match(name, 'John .*') AND gender <> 'M')
        |   OR (regexp_full_match(name, 'Susan .*') AND gender <> 'F')""".stripMargin,
      "t" -> df)
  }
  test("Oracle cross-check: variable-PFD majority flags equal a SQL window query") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan B", "F"), ("Susan C", "M"),
                 ("John D", "M"), ("John E", "M"), ("John F", "F"),
                 ("Kim G", "M"), ("Kim H", "F")).toDF("name", "gender")
    val flagged = ErrorDetector.detect(df, Seq(varDep))
      .groupBy().agg(count(lit(1)).cast("long") as "violations")
    repro.Oracle.assertEquivalent(
      flagged,
      """WITH keyed AS (
        |  SELECT split_part(name, ' ', 1) AS k, gender FROM t
        |), counted AS (
        |  SELECT k, gender, count(*) AS c FROM keyed GROUP BY k, gender
        |), tot AS (
        |  SELECT k, sum(c) AS n, max(c) AS best FROM counted GROUP BY k
        |)
        |SELECT coalesce(sum(n - best), 0)::VARCHAR AS violations
        |FROM tot WHERE best * 2 > n AND n > 1""".stripMargin,
      "t" -> df)
  }
  test("Oracle cross-check: the Generalizer's δ-test counts equal a SQL aggregation") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan B", "F"), ("Susan C", "M"), ("Susan D", null),
                 ("John D", "M"), ("John E", null), ("John F", null),
                 ("Kim G", "M"), ("Kim H", "F"), ("Lee I", null), ("Lee J", null),
                 ("Ann K", "F"), ("lowercase l", "F")).toDF("name", "gender")
    val (matched, off) = PFDCheck.majorityCounts(df, varDep.pfd)
    repro.Oracle.assertEquivalent(
      Seq((matched, off)).toDF("matched", "violations"),
      """WITH keyed AS (
        |  SELECT split_part(name, ' ', 1) AS k, gender FROM t
        |  WHERE regexp_full_match(name, '[A-Z][a-z]* .*')
        |), counted AS (
        |  SELECT k, gender, count(*) AS c FROM keyed GROUP BY k, gender
        |), tot AS (
        |  SELECT k, sum(c) AS n,
        |         coalesce(max(c) FILTER (WHERE gender IS NOT NULL), 0) AS best
        |  FROM counted GROUP BY k
        |)
        |SELECT sum(n)::VARCHAR AS matched, sum(n - best)::VARCHAR AS violations
        |FROM tot""".stripMargin,
      "t" -> df)
  }
  test("detect caches nothing and leaves a caller's cached input cached") {
    import spark.implicits._
    val sc = spark.sparkContext
    // repartitioned: Spark folds plans over a local relation, caches included
    def rows = Seq(("Susan A", "F"), ("Susan B", "F"), ("Susan C", "M"))
      .toDF("name", "gender").repartition(2)
    val deps = Seq(varDep, constDep(Seq("Susan" -> "F")))
    val before = sc.getPersistentRDDs.size
    assert(ErrorDetector.detect(rows, deps).count() == 2)
    assert(sc.getPersistentRDDs.size == before)

    val cached = PFDCheck.withTid(rows).cache()
    cached.count()
    val withCallerCache = sc.getPersistentRDDs.size
    try {
      assert(ErrorDetector.detect(cached, deps).count() == 2)
      assert(sc.getPersistentRDDs.size == withCallerCache)
      assert(cached.storageLevel != StorageLevel.NONE)
    } finally cached.unpersist(blocking = true)
  }
}
