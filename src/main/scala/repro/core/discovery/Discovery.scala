package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import org.apache.spark.storage.StorageLevel
import repro.core._

/** Discovery parameters (§4.2 restrictions (ii)/(iii) and §5.1 defaults). */
final case class Params(
    /** K — minimum number of records containing a pattern. */
    minSupport: Int = 5,
    /** δ — ratio of allowed violations on the dependent side. */
    noise: Double = 0.05,
    /** γ — minimum fraction of records a dependency's tableau must cover. */
    minCoverage: Double = 0.10,
    /** Lattice depth: number of LHS attributes (1 = single-LHS). */
    maxLhs: Int = 1,
    /** Cap on frequent patterns per attribute entering the pair joins. */
    maxPatternsPerAttr: Int = 5000,
    /** Multi-LHS: how many frequent conditioning values to expand per attr. */
    maxConditionValues: Int = 12,
    /** Whether to attempt constant → variable generalization. */
    generalize: Boolean = true,
    /** RHS patterns covering at least this fraction of the whole table are
      * uninformative (e.g. a constant "LIC-" id prefix) and never accepted
      * as dependency evidence.
      */
    maxRhsCover: Double = 0.97)

/** One discovered dependency: the embedded dep (lhs → rhs), its PFD (constant
  * tableau or a generalized variable PFD), and bookkeeping for the metrics.
  */
final case class DiscoveredDep(
    lhs: Seq[String],
    rhs: String,
    pfd: PFD,
    isVariable: Boolean,
    coverage: Double,
    tableauSize: Int) {
  def render: String = s"${lhs.mkString(",")} → $rhs " +
    (if (isVariable) "[variable] " else "[constant] ") +
    f"cov=$coverage%.2f rows=$tableauSize"
}

final case class DiscoveryResult(
    deps: Seq[DiscoveredDep],
    profiles: Seq[ColumnProfile],
    millis: Long)

/** The PFD discovery algorithm of Fig. 4, on Spark DataFrames.
  *
  * Pipeline per table: profile columns → build the inverted pattern index →
  * substring-prune and support-filter pattern stats → join the frequent
  * patterns of every attribute against all other attributes' patterns on
  * tid and aggregate joint counts → the decision function f accepts
  * (p_A → p_B) when |tids(p_A)| ≥ K and the best co-occurring RHS pattern
  * covers ≥ (1−δ)·|tids(p_A)| of them → greedy tableau selection (drop
  * extensions of already-selected patterns, keep the modal position — the
  * single-semantics optimization of §4.4) → report the dependency when the
  * tableau covers ≥ γ of the records → try to generalize the constant
  * tableau to a variable PFD. Level-2 of the attribute lattice conditions on
  * frequent values of the partner attribute (Example 8) after pruning pairs
  * whose children already produced a dependency. Both levels are one mining
  * query ([[mine]]): level 2's sub-tables are slice keys (cond, value) next
  * to the whole table's, so the number of Spark jobs grows with neither
  * attributes nor slices.
  */
object Discovery {

  /** A constant tableau entry accepted by f, on the driver. `fullA`/`fullB`
    * record whether the token is the attribute's entire value on every
    * occurrence (drives exact-literal cells and ⊥-generalization).
    */
  final case class Entry(attrA: String, tokA: String, posA: Int, cntA: Long,
                         attrB: String, tokB: String, posB: Int, cj: Long,
                         fullA: Boolean = false, fullB: Boolean = false)

  def discover(df0: DataFrame, params: Params = Params()): DiscoveryResult = {
    val t0 = System.nanoTime()
    val (deps, profiles) = withCache(PFDCheck.withTid(df0)) { df =>
      val n = df.count()
      val profiles = Profiler.profile(df)
      val quals = profiles.filter(_.isQualitative)
      val attrs = quals.map(_.name)
      if (attrs.size < 2) (Seq.empty, profiles)
      else {
        val tokenized = profiles.map(p => p.name -> p.useTokenize).toMap
        val top = if (params.maxLhs < 2) Map.empty[String, Seq[(String, Long)]]
                  else topValues(df, attrs, params)
        val conds = conditioners(attrs, top, n, params)
        val entries = mine(df, quals, conds.map(c => c -> top(c).map(_._1)), n, params)
        val single = entries.getOrElse(WholeTable, Nil).groupBy(e => (e.attrA, e.attrB)).toSeq
          .sortBy(_._1).flatMap { case ((a, b), es) =>
            val selected = selectTableau(es, tokenized(a)).map(e => (Map.empty[String, Cell], e))
            report(Seq(a), b, selected, n, tokenized, params)(
              Generalizer.generalize(df, a, b, _, tokenized, params))
          }
        val found = single.map(d => (d.lhs.toSet, d.rhs)).toSet
        val multi = discoverLevel2(df, n, attrs, top, conds, entries, tokenized, params, found)
        ((single ++ multi).map(_.dep), profiles)
      }
    }
    DiscoveryResult(deps, profiles, (System.nanoTime() - t0) / 1000000L)
  }

  /** Run `f` on `df` cached; a frame not cached by the caller is released after. */
  private def withCache[T](df: DataFrame)(f: DataFrame => T): T =
    if (df.storageLevel != StorageLevel.NONE) f(df)
    else {
      val cached = df.cache()
      try f(cached) finally cached.unpersist(blocking = true)
    }

  // ------------------------------------------------------------------
  // The mining kernel, shared by both lattice levels.
  // ------------------------------------------------------------------

  /** The slice key (cond, value) of the whole table, which level 1 mines. */
  private val WholeTable = Seq("", "")

  /** Decision f on every slice in one query: the whole table and each
    * frequent value of each conditioner in `conds` (a level-2 sub-table of
    * Example 8). Returns the accepted entries by slice key (cond, value).
    */
  private def mine(df: DataFrame, quals: Seq[ColumnProfile], conds: Seq[(String, Seq[String])],
                   n: Long, params: Params): Map[Seq[String], Seq[Entry]] = {
    // slice keys of a row from one generator: a foldable `cond` literal would
    // drop out of some partitionings and add exchanges
    val keys = struct(lit(WholeTable(0)) as "cond", lit(WholeTable(1)) as "value") +:
      conds.map { case (cond, vals) =>
        val v = col(cond).cast("string")
        when(v.isin(vals: _*), struct(lit(cond) as "cond", v as "value"))
      }
    // Trivially-covering patterns are the whole table's (a slice never turns
    // a globally-varied column into a "constant" one). They must leave the
    // RHS side *before* best-RHS ranking, or e.g. a constant "univ" email
    // token would shadow the informative department token.
    val wholeTableTrivial = col("cond") === WholeTable(0) && col("kept") &&
      col("cnt") >= params.maxRhsCover * n
    // the whole table alone (level 1) needs neither the join nor the window
    val (index, triv) =
      if (conds.isEmpty)
        (PatternIndex.build(df, quals).withColumn("s", explode(array(keys: _*))), wholeTableTrivial)
      else
        (PatternIndex.build(df, quals).join(
           df.select(col(PFDCheck.TidCol) as "tid", explode(array(keys: _*)) as "s"), "tid"),
         max(wholeTableTrivial).over(Window.partitionBy("attr", "token", "pos")))
    val sliced = index.filter(col("s").isNotNull)
      .select(col("tid"), col("attr"), col("token"), col("pos"), col("full"),
              col("s.cond") as "cond", col("s.value") as "value")
      .filter(col("attr") =!= col("cond")) // constant within its own slices
    val rows = PatternIndex.patternRows(sliced, Seq("cond", "value"), params.maxPatternsPerAttr)
      .withColumn("triv", triv).filter(col("kept") && !col("triv"))
    withCache(rows) { rows =>
      val minRhsCnt = math.max(1L, math.floor((1 - params.noise) * params.minSupport).toLong)
      val lhs = rows.filter(col("cnt") >= params.minSupport)
        .select(col("cond"), col("value"), col("tid"), col("attr") as "attrA",
                col("token") as "tokA", col("pos") as "posA", col("cnt") as "cntA",
                col("isFull") as "fullA")
      val rhs = rows.filter(col("cnt") >= minRhsCnt)
        .select(col("cond"), col("value"), col("tid"), col("attr") as "attrB",
                col("token") as "tokB", col("pos") as "posB", col("full") as "fullB0")
      val lhsKey = Seq(col("cond"), col("value"), col("attrA"), col("tokA"), col("posA"))
      val joint = lhs.join(rhs, Seq("cond", "value", "tid"))
        .filter(col("attrA") =!= col("attrB"))
        .repartition(lhsKey :+ col("attrB"): _*)
        .groupBy(lhsKey ++ Seq(col("cntA"), col("fullA"), col("attrB"), col("tokB"), col("posB")): _*)
        .agg(count(lit(1)) as "cj", (min(when(col("fullB0"), 1).otherwise(0)) === 1) as "fullB")
        .filter(col("cj") >= ceil(col("cntA") * (1 - params.noise)))
      // best RHS pattern per LHS pattern: most specific first (substring
      // pruning guarantees a longer pattern is never dominated spuriously),
      // then most frequent.
      val w = Window.partitionBy(lhsKey :+ col("attrB"): _*)
        .orderBy(length(col("tokB")).desc, col("cj").desc, col("tokB").asc, col("posB").asc)
      joint.withColumn("__r", row_number().over(w)).filter(col("__r") === 1)
        .select("cond", "value", "attrA", "tokA", "posA", "cntA", "attrB", "tokB", "posB", "cj",
                "fullA", "fullB")
        .collect().toSeq
        .groupMap(r => Seq(r.getString(0), r.getString(1))) { r =>
          Entry(r.getString(2), r.getString(3), r.getInt(4), r.getLong(5), r.getString(6),
                r.getString(7), r.getInt(8), r.getLong(9), r.getBoolean(10), r.getBoolean(11))
        }
    }
  }

  // ------------------------------------------------------------------
  // Tableau selection + PFD construction for one candidate dependency.
  // ------------------------------------------------------------------

  /** A reported dependency lhs → rhs; `dep` runs its generalization, after
    * both levels are mined: its scans share generated code with error
    * detection, which then still finds that code in Spark's small cache. */
  private final class Reported(val lhs: Seq[String], val rhs: String, build: => DiscoveredDep) {
    lazy val dep: DiscoveredDep = build
  }

  /** Dependency reporting from a selected tableau: each entry comes with
    * the constant LHS cells of already-fixed attributes (multi-LHS). The
    * dependency is reported when the tableau covers ≥ γ of the `total`
    * records; `generalize` may turn the constant tableau into a variable PFD.
    */
  private def report(lhsAttrs: Seq[String], b: String, selected: Seq[(Map[String, Cell], Entry)],
                     total: Long, tokenized: Map[String, Boolean], params: Params)
                    (generalize: Seq[Entry] => Option[PFD]): Option[Reported] = {
    val a = lhsAttrs.last // the pattern-bearing attribute
    if (selected.isEmpty) return None
    val coverage = selected.map(_._2.cntA).sum.toDouble / total
    if (coverage < params.minCoverage) return None

    val rows = selected.map { case (conditioning, e) =>
      PTuple(
        conditioning + (a -> cellFor(tokenized(a), e.tokA, e.posA, e.fullA)),
        Map(b -> cellFor(tokenized(b), e.tokB, e.posB, e.fullB)))
    }
    Some(new Reported(lhsAttrs, b, {
      val g = if (params.generalize) generalize(selected.map(_._2)) else None
      DiscoveredDep(lhsAttrs, b, g.getOrElse(PFD(lhsAttrs, Seq(b), rows)), g.isDefined,
                    coverage, rows.size)
    }))
  }

  /** Greedy dedup (skip patterns that extend an already-selected one — their
    * tid sets are subsets) followed by the single-semantics positional filter.
    */
  private[discovery] def selectTableau(es: Seq[Entry], isTokenized: Boolean): Seq[Entry] = {
    val sorted = es.sortBy(e => (-e.cntA, e.posA, e.tokA))
    val kept = scala.collection.mutable.ArrayBuffer.empty[Entry]
    sorted.foreach { e =>
      val redundant = kept.exists(s => extendsPattern(e, s, isTokenized))
      if (!redundant) kept += e
    }
    // single semantics: keep the position group with the largest coverage
    if (kept.isEmpty) Seq.empty
    else {
      val best = kept.groupBy(_.posA).maxBy { case (p, xs) => (xs.map(_.cntA).sum, -p) }._1
      kept.filter(_.posA == best).toSeq
    }
  }

  /** Whether `e`'s LHS pattern is an extension of selected `s` (so that
    * tids(e) ⊆ tids(s)). For n-gram positions: substring at consistent
    * character offsets; for tokenized: `s` a token of the full value `e`.
    */
  private def extendsPattern(e: Entry, s: Entry, isTokenized: Boolean): Boolean = {
    if (isTokenized) {
      if (e.tokA == s.tokA && e.posA == s.posA) true
      else if (e.posA == PatternIndex.FullValuePos && s.posA >= 0)
        Tokenizer.tokens(e.tokA).exists(t => t.token == s.tokA && t.pos == s.posA)
      else false
    } else {
      val off = s.posA - e.posA
      off >= 0 && off + s.tokA.length <= e.tokA.length &&
        e.tokA.regionMatches(off, s.tokA, 0, s.tokA.length)
    }
  }

  /** Constrained-pattern cell for a mined (token, pos) (see Table 3 for the
    * shapes this mirrors: `900\D{2}`-style offsets for n-gram columns,
    * `\A*,\ Donald\A*`-style boundary-guarded tokens for tokenized ones).
    * Tokenized cells carry two alternatives — token-at-end and
    * token-followed-by-separator — so 'John' never matches inside 'Johnson'.
    */
  private[discovery] def cellFor(isTokenized: Boolean, token: String, pos: Int,
                                 isFull: Boolean = false): Cell = {
    import CharClass._
    if (isFull) {
      Cell(ConstrainedPattern.wholeLiteral(token))
    } else if (!isTokenized) {
      val pre = if (pos == 0) Pattern.Empty else Pattern.cls(AnyCh, Rep.Exactly(pos))
      Cell(ConstrainedPattern(pre, Pattern.lit(token), Pattern.AnyStar))
    } else if (pos == PatternIndex.FullValuePos) {
      Cell(ConstrainedPattern.wholeLiteral(token))
    } else {
      val pre =
        if (pos == 0) Pattern.Empty
        else Pattern(Vector(Cls(AnyCh, Rep.Star), Cls(Symbol, Rep.One)))
      Pats(List(
        ConstrainedPattern(pre, Pattern.lit(token), Pattern.Empty),
        ConstrainedPattern(pre, Pattern.lit(token),
          Pattern(Vector(Cls(Symbol, Rep.One), Cls(AnyCh, Rep.Star))))))
    }
  }

  // ------------------------------------------------------------------
  // Level 2 of the attribute-set lattice: {A, C} → B (Example 8).
  // ------------------------------------------------------------------

  /** Candidate pairs (pat, b) for {cond, pat} → b. The conditioning
    * attribute is the one whose top values are most frequent (Example 8
    * starts from 'country'); a candidate is kept only when the lattice's
    * children produced nothing (restriction iv, `found`) and pat has fewer
    * frequent top values than cond would grant it as conditioner.
    */
  private def candidates(attrs: Seq[String], top: Map[String, Seq[(String, Long)]], cond: String,
                         found: Set[(Set[String], String)]): Seq[(String, String)] = {
    def first(a: String): Long = top(a).headOption.map(_._2).getOrElse(0L)
    for {
      pat <- attrs; b <- attrs
      if pat != cond && b != cond && b != pat
      if !found.contains((Set(pat), b)) && !found.contains((Set(cond), b))
      // each unordered pair is expanded from its better conditioner only
      if first(pat) < first(cond) || (first(pat) == first(cond) && cond < pat)
    } yield (pat, b)
  }

  /** Conditioners whose slices are mined: they have candidates before level-1
    * pruning, and their frequent values cover ≥ γ (restriction iv: a level-2
    * tableau only covers rows inside the conditioning slices). */
  private def conditioners(attrs: Seq[String], top: Map[String, Seq[(String, Long)]], n: Long,
                           params: Params): Seq[String] =
    attrs.filter { cond =>
      top.get(cond).exists(vals => vals.nonEmpty &&
        vals.map(_._2).sum.toDouble / n >= params.minCoverage) &&
        candidates(attrs, top, cond, Set.empty).nonEmpty
    }

  /** {cond, pat} → b from the entries of cond's slices, each slice mined once
    * and reused for every candidate pair.
    */
  private def discoverLevel2(df: DataFrame, n: Long, attrs: Seq[String],
                             top: Map[String, Seq[(String, Long)]], conds: Seq[String],
                             entries: Map[Seq[String], Seq[Entry]],
                             tokenized: Map[String, Boolean], params: Params,
                             found: Set[(Set[String], String)]): Seq[Reported] =
    conds.flatMap { cond =>
      candidates(attrs, top, cond, found).flatMap { case (pat, b) =>
        val selected = top(cond).flatMap { case (v, _) =>
          val es = entries.getOrElse(Seq(cond, v), Seq.empty)
          selectTableau(es.filter(e => e.attrA == pat && e.attrB == b), tokenized(pat))
            .map(e => (Map[String, Cell](cond -> Cell(ConstrainedPattern.wholeLiteral(v))), e))
        }
        report(Seq(cond, pat), b, selected, n, tokenized, params)(
          Generalizer.generalizeMulti(df, cond, pat, b, _, tokenized, params))
      }
    }

  /** The most frequent values (count ≥ K, at most `maxConditionValues`) of
    * every attribute, most frequent first, from one query.
    */
  private def topValues(df: DataFrame, attrs: Seq[String],
                        params: Params): Map[String, Seq[(String, Long)]] = {
    val byAttr = Window.partitionBy("attr").orderBy(col("count").desc, col("v").asc)
    val top = df
      .select(explode(array(attrs.map(a =>
        struct(lit(a) as "attr", col(a).cast("string") as "v")): _*)) as "x")
      .select("x.attr", "x.v")
      .filter(col("v").isNotNull)
      .repartition(col("attr"))
      .groupBy("attr", "v").count()
      .filter(col("count") >= params.minSupport)
      .withColumn("__r", row_number().over(byAttr))
      .filter(col("__r") <= params.maxConditionValues)
      .collect()
      .map(r => (r.getString(0), r.getInt(3), (r.getString(1), r.getLong(2))))
    attrs.map(a => a -> top.filter(_._1 == a).sortBy(_._2).map(_._3).toSeq).toMap
  }
}
