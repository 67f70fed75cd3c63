package repro.core

import repro.SparkSpec
import repro.core.detect.ErrorDetector
import repro.core.discovery.DiscoveredDep

/** The violation kernel of [[PFDCheck]] as its three callers see it:
  * `violations` / `satisfies`, error detection and the Generalizer's δ-test
  * counts (`majorityCounts`) must agree on groups and on the majority rule.
  */
class ViolationKernelSpec extends SparkSpec {

  private def variable(pfd: PFD): DiscoveredDep =
    DiscoveredDep(pfd.lhs, pfd.rhs.head, pfd, isVariable = true, coverage = 1.0, tableauSize = 1)

  /** ({a, b} → c, {⊥, ⊥ ‖ ⊥}): a plain two-attribute FD. */
  private val pairFd = PFD(Seq("a", "b"), Seq("c"), Seq(
    PTuple(Map("a" -> Wildcard, "b" -> Wildcard), Map("c" -> Wildcard))))

  /** ψ2 of Fig. 2(b): first name → gender, RHS ⊥. */
  private val firstName = PFD(Seq("name"), Seq("gender"), Seq(PTuple(
    Map("name" -> Cell(ConstrainedPattern(Pattern.Empty, Pattern.parse("\\LU\\LL*"),
                                          Pattern.parse("\\ \\A*")))),
    Map("gender" -> Wildcard))))

  test("multi-attribute LHS keys do not collide: (ab, c) and (a, bc) are two groups") {
    import spark.implicits._
    // joined with a separator, the keys collide when the values contain it
    // (U+0001 was the separator of an earlier concatenated key)
    Seq("", "\u0001").foreach { sep =>
      val df = Seq((s"a${sep}b", "c", "X"), ("a", s"b${sep}c", "Y"), ("a", s"b${sep}c", "Y"))
        .toDF("a", "b", "c")
      assert(PFDCheck.violations(df, pairFd).isEmpty)
      assert(PFDCheck.satisfies(df, pairFd))
      assert(ErrorDetector.detect(df, Seq(variable(pairFd))).isEmpty)
      assert(PFDCheck.majorityCounts(df, pairFd) == ((3L, 0L)))
    }
  }
  test("the majority key is non-null first: a {null: 2, F: 1} group has no strict majority") {
    import spark.implicits._
    val df = Seq(("Susan A", null: String), ("Susan B", null: String), ("Susan C", "F"))
      .toDF("name", "gender")
    assert(PFDCheck.violations(df, firstName).isEmpty)
    assert(!PFDCheck.satisfies(df, firstName))
    assert(ErrorDetector.detect(df, Seq(variable(firstName))).isEmpty)
    assert(PFDCheck.majorityCounts(df, firstName) == ((3L, 2L)))
  }
  test("a non-matching RHS is off a strict non-null majority: {F: 2, null: 1} flags the null") {
    import spark.implicits._
    val df = Seq(("Susan A", "F"), ("Susan B", null: String), ("Susan C", "F"))
      .toDF("name", "gender")
    val flagged = (d: org.apache.spark.sql.DataFrame) =>
      d.select(PFDCheck.TidCol).collect().map(_.getLong(0)).toSet
    assert(flagged(PFDCheck.violations(df, firstName)) == Set(1L))
    assert(flagged(ErrorDetector.detect(df, Seq(variable(firstName)))) == Set(1L))
    assert(PFDCheck.majorityCounts(df, firstName) == ((3L, 1L)))
  }
}
