package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** A tableau cell: the wildcard `⊥` or a disjunction of constrained patterns.
  *
  * The disjunction (`Pats` with several alternatives) exists for the
  * LHS-Generalization axiom, which unions the patterns of two PFDs; discovery
  * emits single-pattern cells.
  */
sealed trait Cell {
  /** t[A] ↦ tp[A]: wildcards match everything. */
  def matches(s: String): Boolean
  /** The equivalence key of `s` under this cell, if `s` matches.
    * For `⊥` on a LHS/RHS the key is the full value (wildcard agreement);
    * for patterns it is the constrained portion of the first alternative
    * that matches.
    */
  def key(s: String): Option[String]
  def render: String
}

/** The unnamed variable `⊥`. */
case object Wildcard extends Cell {
  def matches(s: String): Boolean = s != null
  def key(s: String): Option[String] = Option(s)
  def render: String = "⊥"
}

/** One or more constrained-pattern alternatives. */
final case class Pats(alts: List[ConstrainedPattern]) extends Cell {
  require(alts.nonEmpty, "empty pattern cell")
  def matches(s: String): Boolean = alts.exists(_.matches(s))
  def key(s: String): Option[String] =
    alts.iterator.map(_.extract(s)).collectFirst { case Some(k) => k }
  /** All alternatives literal-constrained ⇒ single-tuple enforceable. */
  def isConstant: Boolean = alts.forall(_.isConstant)
  def render: String = alts.map(_.render).mkString(" ∪ ")
}

object Cell {
  def apply(cp: ConstrainedPattern): Cell = Pats(List(cp))
  /** Union of two cells (LHS-Generalization). `⊥` absorbs. */
  def union(a: Cell, b: Cell): Cell = (a, b) match {
    case (Wildcard, _) | (_, Wildcard) => Wildcard
    case (Pats(x), Pats(y))            => Pats((x ++ y).distinct)
  }
}

/** One tableau tuple t_p: a cell per attribute of X ∪ Y. When an attribute
  * appears on both sides its LHS and RHS cells are kept separately
  * (`lhsCells` / `rhsCells`), matching the paper's A^L / A^R convention.
  */
final case class PTuple(lhsCells: Map[String, Cell], rhsCells: Map[String, Cell]) {
  def render: String =
    lhsCells.toSeq.sortBy(_._1).map { case (a, c) => s"$a=${c.render}" }.mkString(", ") +
      " ‖ " +
      rhsCells.toSeq.sortBy(_._1).map { case (a, c) => s"$a=${c.render}" }.mkString(", ")

  /** Single-tuple enforceable iff every RHS cell is constant-constrained. */
  def isConstantRow: Boolean = rhsCells.values.forall {
    case p: Pats => p.isConstant
    case _       => false
  }
}

/** A pattern functional dependency ψ: R(X → Y, Tp) (§2.1). */
final case class PFD(lhs: Seq[String], rhs: Seq[String], tableau: Seq[PTuple]) {
  require(lhs.nonEmpty && rhs.nonEmpty, "PFD needs LHS and RHS attributes")

  /** Trivial PFDs (A ∈ X appearing on the RHS with the identical cell) are
    * ignored by discovery; kept here only for inference tests.
    */
  def embeddedDep: (Seq[String], Seq[String]) = (lhs, rhs)

  def render: String =
    s"(${lhs.mkString(",")} → ${rhs.mkString(",")}, {${tableau.map(_.render).mkString("; ")}})"

  override def toString: String = render
}

object PFD {
  /** Normal form constructor: single RHS attribute. */
  def normal(lhs: Seq[String], rhs: String, tableau: Seq[PTuple]): PFD =
    PFD(lhs, Seq(rhs), tableau)
}

/** DataFrame-based satisfaction and violation checking (§2.2): the one
  * implementation of PFD violation semantics. Error detection and the
  * Generalizer's δ-test are its callers.
  *
  * Semantics per tableau tuple t_p:
  *  - a data tuple *participates* if it matches every LHS cell;
  *  - participating tuples are grouped by their LHS equivalence keys;
  *  - within a group, every tuple must match every RHS cell and all tuples
  *    must share the same RHS keys;
  *  - additionally, when the row is constant (literal RHS), a single
  *    participating tuple already violates if its RHS does not match
  *    (single-tuple semantics, Example 6).
  *
  * The majority rule: a group's majority RHS key is the first of its keys
  * ordered non-null first, then by count descending, then by key ascending
  * (a null key is a tuple whose RHS does not match). Repair flags, in each
  * group of ≥ 2 tuples whose majority key holds a strict majority, every
  * tuple off that key, null keys included.
  */
object PFDCheck {

  val TidCol = "__tid"

  /** Ensure a stable row-id column for violation reporting. Fresh ids are
    * turned into data: a `monotonically_increasing_id` can take other values
    * in another plan of the same frame (an equal plan cached elsewhere), and
    * callers join and union on tid.
    */
  def withTid(df: DataFrame): DataFrame =
    if (df.columns.contains(TidCol)) df
    else {
      val d = df.withColumn(TidCol, monotonically_increasing_id())
      d.sparkSession.createDataFrame(d.rdd, d.schema)
    }

  /** The key of `attr` under `cell`; null when the value does not match the
    * cell (for every cell, `matches(s)` ⇔ `key(s).isDefined`).
    */
  private def keyCol(cell: Cell, attr: String): Column =
    udf((s: String) => Option(s).flatMap(cell.key)).apply(col(attr).cast("string"))

  /** The LHS groups of variable row `tp` on RHS attribute `b`. `rows`: the
    * participating tuples with one key column per LHS attribute (`lkeys`)
    * and the RHS key `__rk`. `majority`: the group-majority table, one row
    * (LHS keys…, __tot, __majk, __majcnt) per group.
    */
  private final class Groups(df: DataFrame, pfd: PFD, tp: PTuple, b: String) {
    val lkeys: Seq[String] = pfd.lhs.indices.map(i => s"__k$i")
    val rows: DataFrame = pfd.lhs.zip(lkeys)
      .foldLeft(df) { case (d, (a, k)) => d.withColumn(k, keyCol(tp.lhsCells(a), a)) }
      .filter(lkeys.map(col(_).isNotNull).reduce(_ && _))
      .withColumn("__rk", keyCol(tp.rhsCells(b), b))
    val majority: DataFrame = {
      val w = Window.partitionBy(lkeys.map(col): _*)
      rows.groupBy((lkeys :+ "__rk").map(col): _*).agg(count(lit(1)) as "__c")
        .withColumn("__tot", sum("__c").over(w))
        .withColumn("__r", row_number().over(
          w.orderBy(col("__rk").isNull, col("__c").desc, col("__rk"))))
        .filter(col("__r") === 1)
        .select(lkeys.map(col) ++
                Seq(col("__tot"), col("__rk") as "__majk", col("__c") as "__majcnt"): _*)
    }
  }

  /** Single-tuple violations of the constant rows `rows` on RHS attribute
    * `b`, all rows in one scan: a tuple violates a row when it matches every
    * LHS cell and t[b] fails the RHS cell. Each violated row suggests its RHS
    * literal as the repair when that constrains the whole value.
    */
  private def constantViolations(df: DataFrame, lhs: Seq[String], rows: Seq[PTuple],
                                 b: String): DataFrame = {
    val cells = rows.map { tp =>
      val suggestion = tp.rhsCells(b) match {
        case Pats(List(cp)) if cp.constrainsWhole => cp.constrained.literalValue.orNull
        case _                                    => null
      }
      (lhs.map(tp.lhsCells), tp.rhsCells(b), suggestion)
    }
    val violated = udf { vals: Seq[String] =>
      val (lhsVals, rhsVal) = (vals.init, vals.last)
      cells.collect {
        case (lcells, rcell, suggestion)
            if lcells.zip(lhsVals).forall { case (c, v) => c.matches(v) } &&
              !rcell.matches(rhsVal) => suggestion
      }.distinct
    }
    df.select(col(TidCol), lit(b) as "attr", col(b).cast("string") as "value",
              explode(violated(array((lhs :+ b).map(a => col(a).cast("string")): _*)))
                as "suggestion")
  }

  /** Pair violations of variable row `tp` on `b`: the tuples off their
    * group's majority key, in groups where that key holds a strict majority.
    */
  private def variableViolations(df: DataFrame, pfd: PFD, tp: PTuple, b: String): DataFrame = {
    val g = new Groups(df, pfd, tp, b)
    // a 50/50 split has no majority witness: flag only strict minorities
    val majority = g.majority.filter(col("__tot") > 1 && col("__majcnt") * 2 > col("__tot"))
    g.rows.join(majority, g.lkeys)
      .filter(col("__rk").isNull || col("__rk") =!= col("__majk"))
      .select(col(TidCol), lit(b) as "attr", col(b).cast("string") as "value",
              lit(null: String) as "suggestion")
  }

  /** All violations of `pfd` over `df`, as (tid, attr) pairs over the RHS
    * attributes, plus a repair suggestion when a constant row fixes the
    * whole value. Output columns: __tid, attr, value, suggestion (nullable).
    */
  def violations(df0: DataFrame, pfd: PFD): DataFrame = {
    val df = withTid(df0)
    val (constant, variable) = pfd.tableau.partition(_.isConstantRow)
    val parts = pfd.rhs.flatMap { b =>
      Option.when(constant.nonEmpty)(constantViolations(df, pfd.lhs, constant, b)) ++
        variable.map(variableViolations(df, pfd, _, b))
    }
    // one part flags each cell at most once per suggestion
    if (parts.size == 1) parts.head else parts.reduce(_ unionByName _).distinct()
  }

  /** T ⊨ ψ — strict satisfaction: no tuple pair (or single tuple, for
    * constant rows) violates any tableau row. Note: unlike `violations`,
    * which flags only minority tuples for *repair*, satisfaction fails on
    * any group of ≥ 2 tuples with a tuple off its non-null majority key.
    */
  def satisfies(df0: DataFrame, pfd: PFD): Boolean = {
    val df = withTid(df0)
    val constant = pfd.tableau.filter(_.isConstantRow)
    pfd.rhs.forall { b =>
      (constant.isEmpty || constantViolations(df, pfd.lhs, constant, b).isEmpty) &&
        pfd.tableau.forall { tp =>
          new Groups(df, pfd, tp, b).majority
            .filter(col("__tot") > 1 && (col("__majk").isNull || col("__majcnt") < col("__tot")))
            .isEmpty
        }
    }
  }

  /** The δ-test of Generalize(ψ) (§4.3) for a PFD of one variable row and
    * one RHS attribute: (tuples taking part in the row, those of them off
    * their group's non-null majority key).
    */
  def majorityCounts(df: DataFrame, pfd: PFD): (Long, Long) = {
    require(pfd.tableau.size == 1 && pfd.rhs.size == 1, "one tableau row, one RHS attribute")
    val nonNullMajority = when(col("__majk").isNotNull, col("__majcnt")).otherwise(0L)
    val r = new Groups(df, pfd, pfd.tableau.head, pfd.rhs.head).majority
      .agg(coalesce(sum("__tot"), lit(0L)), coalesce(sum(col("__tot") - nonNullMajority), lit(0L)))
      .head()
    (r.getLong(0), r.getLong(1))
  }
}
