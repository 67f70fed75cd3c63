package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import repro.core.PFDCheck
import repro.core.detect.ErrorDetector
import repro.core.discovery.{DiscoveredDep, DiscoveryResult, Discovery, PatternIndex, Profiler, Tokenizer}
import repro.eval.Metrics

/** PFD pipeline benchmark: profile → index → discover → detect on one
  * workload, closed loop (one caller, calls back to back).
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * `--trace 0` times whole discover/detect calls and prints the end-to-end
  * metrics. `--trace 1` registers a SparkListener, calls each layer's public
  * entry points and prints per-layer metrics. The last line of standard
  * output is one JSON object: {correct, attempted, failed, metrics}.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  /** Set-up repetitions; `setup_s` is their median. */
  val SetupReps = 3
  /** Timed passes run at least this often, whatever `--seconds` says; the
    * median of three is robust to one pass disturbed by other load.
    */
  val MinIterations = 3
  val ShufflePartitions = 8

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList, Map.empty)
    val spec = Workloads.all.find(_.name == args.workload).getOrElse(
      usage(s"unknown workload ${args.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val bench = new Bench(spec, args)
    val result = try bench.run() finally bench.stop()
    println(result)
  }

  private def parse(as: List[String], acc: Map[String, String]): Args = as match {
    case k :: v :: rest if k.startsWith("--") => parse(rest, acc + (k.drop(2) -> v))
    case Nil =>
      def need(k: String) = acc.getOrElse(k, usage(s"missing --$k"))
      val trace = need("trace")
      if (trace != "0" && trace != "1") usage("--trace takes 0 or 1")
      Args(need("workload"), need("seed").toLong, need("seconds").toInt, trace == "1")
    case other => usage(s"cannot parse ${other.mkString(" ")}")
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** One benchmark process: session set-up, the workload's table, the loop. */
final class Bench(spec: Workloads.Spec, args: Main.Args) {
  import Main._

  private val cores = Runtime.getRuntime.availableProcessors
  private val workDir = new File(sys.props.getOrElse("perfbench.work", ".bench_build/run"))
  private var spark: SparkSession = _
  private var table: BenchTable = _

  private def newSession(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("pfd-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def settings: String = {
    val c = spark.conf
    Seq(
      "master" -> spark.sparkContext.master,
      "spark.sql.shuffle.partitions" -> c.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> c.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark.sql.adaptive.enabled" -> c.get("spark.sql.adaptive.enabled"),
      "spark.ui.enabled" -> spark.sparkContext.getConf.get("spark.ui.enabled"),
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
      "spark_version" -> spark.version)
      .map { case (k, v) => s"$k=$v" }.mkString(" ")
  }

  def stop(): Unit = if (spark != null) spark.stop()

  def run(): String = {
    spark = newSession()
    table = Workloads.load(spark, spec, args.seed)
    println(s"# workload ${spec.name} seed ${args.seed}: ${spec.why}")
    println(s"# settings $settings")
    println(s"# table ${table.name}: discover ${table.discoverRows} rows, detect " +
      s"${table.detectRows} rows, ${table.groundTruth.size} true deps, " +
      s"${table.injected.size} injected cells")
    val out = new Report
    if (args.trace) new Traced(out).run() else untraced(out)
    out.render()
  }

  /** Session start, input generation and caching, from a stopped session. */
  private def setup(): Double = {
    Workloads.unload(table)
    spark.stop()
    val t0 = System.nanoTime()
    spark = newSession()
    table = Workloads.load(spark, spec, args.seed)
    (System.nanoTime() - t0) / 1e9
  }

  // ------------------------------------------------------------------
  // Operations and their checks.
  // ------------------------------------------------------------------

  /** Output of one discover + detect. */
  private final case class Outcome(deps: Seq[DiscoveredDep], validated: Seq[DiscoveredDep],
                                   flagged: Set[(Long, String)])

  private def render(deps: Seq[DiscoveredDep]): Seq[String] =
    deps.map(d => s"${d.render} :: ${d.pfd.render}").sorted

  private def detect(deps: Seq[DiscoveredDep]): Set[(Long, String)] =
    ErrorDetector.detect(table.detectDf, deps)
      .select(PFDCheck.TidCol, "attr").distinct()
      .collect().map(r => (r.getLong(0), r.getString(1))).toSet

  /** Counts attempted/failed operations and holds the first output of each
    * kind of call; later outputs must equal it (determinism check).
    */
  private final class Checker {
    var attempted = 0L
    var failed = 0L
    private val reference = scala.collection.mutable.Map.empty[String, Any]

    /** Run one operation; None if it threw or its output was wrong. */
    private def op[T](key: String, same: T => Any)(f: => T)(ok: T => Boolean): Option[T] = {
      attempted += 1
      val r = try Some(f) catch {
        case e: Exception =>
          System.err.println(s"operation $key failed: $e"); None
      }
      r.filter { v =>
        val good = ok(v) && reference.getOrElseUpdate(key, same(v)) == same(v)
        if (!good) System.err.println(s"operation $key: wrong or changed output")
        good
      }.orElse { failed += 1; None }
    }

    def discover(key: String)(f: => DiscoveryResult): Option[DiscoveryResult] =
      op[DiscoveryResult](key, r => render(r.deps))(f)(_.deps.nonEmpty)

    def detect(f: => Set[(Long, String)]): Option[Set[(Long, String)]] =
      op[Set[(Long, String)]]("detect", identity)(f)(_ => true)
  }

  /** `Discovery.discover` unpersists the frame it is given, even when the
    * caller cached it. Re-cache inputs before each call, outside any timed
    * region, so that every call starts from the same cached inputs.
    */
  private def cached(): Unit = table.frames.foreach { f =>
    if (f.storageLevel == StorageLevel.NONE) { f.cache(); f.count() }
  }

  private def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  // ------------------------------------------------------------------
  // Untraced run: end-to-end metrics.
  // ------------------------------------------------------------------

  private def untraced(out: Report): Unit = {
    val check = new Checker
    /** One pass: (outcome, discover seconds, detect seconds). */
    def iteration(): (Outcome, Double, Double) = {
      cached()
      val (res, discS) = time(check.discover("discover")(
        Discovery.discover(table.discoverDf, table.params)))
      val deps = res.map(_.deps).getOrElse(Seq.empty)
      val validated = table.validated(deps)
      cached()
      val (flagged, detS) = time(check.detect(detect(validated)))
      (Outcome(deps, validated, flagged.getOrElse(Set.empty)), discS, detS)
    }
    // Warm-up pass: the first pass in a fresh JVM is about twice as slow.
    // Its outputs are the reference every later pass is checked against.
    val (outcome, _, _) = iteration()
    // set-up is timed after the warm-up, so that it measures the program's
    // work rather than class loading
    val setupS = median((1 to SetupReps).map(_ => setup()))
    val start = System.nanoTime()
    val passes = scala.collection.mutable.ArrayBuffer.empty[(Double, Double)]
    while (passes.size < MinIterations || System.nanoTime() - start < args.seconds * 1e9) {
      val (_, d, t) = iteration()
      passes += ((d, t))
    }
    val q = new Quality(outcome)
    val totals = passes.map { case (d, t) => d + t }.toSeq
    val pipeline = median(totals)
    out.note(f"${passes.size} timed passes; pipeline_s min ${totals.min}%.3f max ${totals.max}%.3f")
    out.metric("setup_s", setupS, "s")
    out.metric("pipeline_s", pipeline, "s")
    out.metric("discover_s", median(passes.map(_._1).toSeq), "s")
    out.metric("detect_s", median(passes.map(_._2).toSeq), "s")
    out.metric("rows_per_s", (table.discoverRows + table.detectRows) / pipeline, "1/s")
    q.endToEnd(out)
    out.finish(check.attempted, check.failed + q.gateFailures, q.gateFailures == 0)
  }

  // ------------------------------------------------------------------
  // Quality against the generator's ground truth.
  // ------------------------------------------------------------------

  private final class Quality(o: Outcome) {
    private val deps = Metrics.score(o.deps.map(d => (d.lhs, d.rhs)), table.groundTruth)
    private val errs = Metrics.scoreErrors(o.flagged, table.injected)
    /** Per Table-8 dependency: (name, rules, rules the oracle confirms, coverage). */
    private val rules: Seq[(String, Int, Int, Double)] = o.validated.flatMap { d =>
      table.ruleOracles.get((d.lhs.head, d.rhs)).map { oracle =>
        val rs = Workloads.ruleTokens(d)
        val lhsCells = d.pfd.tableau.map(_.lhsCells(d.lhs.head))
        val values = table.discoverDf.select(col(d.lhs.head).cast("string")).collect()
          .map(_.getString(0))
        val covered = values.count(v => v != null && lhsCells.exists(_.matches(v)))
        (s"${d.lhs.head} → ${d.rhs}", rs.size, rs.count { case (l, r) => oracle(l, r) },
         covered.toDouble / values.length)
      }
    }
    /** Table 8 gate: every dependency found, with rule precision ≥ 95 %. */
    val gateFailures: Long = (rules.count { case (_, n, ok, _) => n == 0 || ok < 0.95 * n } +
      table.ruleOracles.size - rules.size).toLong

    private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

    def endToEnd(out: Report): Unit = {
      out.metric("dep_precision", ratio(deps.correct, deps.found), "ratio")
      out.metric("dep_recall", ratio(deps.correct, deps.gtSize), "ratio")
      out.metric("err_recall", ratio(errs.hits, table.injected.size), "ratio")
      out.note(s"${table.name}: ${deps.found} deps (P ${deps.pStr}, R ${deps.rStr}), " +
               s"${errs.flagged} cells flagged (P ${errs.pStr}, " +
               s"${errs.hits}/${table.injected.size} injected found)")
      rules.foreach { case (name, n, ok, cov) =>
        out.note(f"$name: $n constant rules, oracle precision ${ratio(ok, n) * 100}%.1f%%, coverage ${cov * 100}%.1f%%")
      }
    }

    def perLayer(out: Report): Unit = {
      // flagged-cell precision varies with the seed far more than a bound
      // allows (tens of injected cells per table), so it is a layer metric
      out.metric("ErrorDetector.err_precision", ratio(errs.hits, errs.flagged), "ratio")
      val n = rules.map(_._2).sum
      out.metric("Discovery.rules_checked", n.toDouble, "count")
      out.metric("Discovery.rule_precision", ratio(rules.map(_._3).sum, n), "ratio")
      out.metric("Discovery.rule_coverage",
        if (rules.isEmpty) 0.0 else rules.map(_._4).sum / rules.size, "ratio")
    }
  }

  // ------------------------------------------------------------------
  // Traced run: per-layer metrics from public entry points + a listener.
  // ------------------------------------------------------------------

  private final case class Sample(secs: Double, c: Counts) {
    def -(o: Sample): Sample = Sample(secs - o.secs, c - o.c)
  }

  /** One traced pass over the table. */
  private final case class LayerPass(
      profile: Sample, index: Sample, noGen: Sample, level1: Sample, full: Sample,
      detect: Sample, indexRows: Long, keptPatterns: Long, distinctPatterns: Long,
      level1Deps: Int, accepted: Int, level2Deps: Int, tableauRows: Int,
      outcome: Outcome) {
    def work: Seq[(Long, Long, Long)] = Seq(profile, index, noGen, level1, full, detect).map(_.c.work)
  }

  private final class Traced(out: Report) {
    private val sc = spark.sparkContext
    private val counters = new SparkCounters
    private val check = new Checker

    private def span[T](f: => T): (T, Sample) = {
      val c0 = counters.read(sc)
      val (r, secs) = time(f)
      (r, Sample(secs, counters.read(sc) - c0))
    }

    private def pass(): LayerPass = {
      val p = table.params
      val df = table.discoverDf
      cached()
      val (profiles, sProf) = span(Profiler.profile(df))
      val ((index, rows, kept), sIdx) = span {
        val index = PatternIndex.build(df, profiles).cache()
        val rows = index.count()
        val stats = PatternIndex.prunedStats(index, p.maxPatternsPerAttr).cache()
        val kept = stats.count()
        stats.unpersist()
        (index, rows, kept)
      }
      val distinct = index.select("attr", "token", "pos").distinct().count()
      index.unpersist()
      def disc(key: String, q: repro.core.discovery.Params) = {
        cached()
        span(check.discover(key)(Discovery.discover(df, q)))
      }
      val (noGen, sNoGen) = disc("discover-nogen", p.copy(generalize = false, maxLhs = 1))
      val (l1, sL1) =
        if (p.generalize) disc("discover-l1", p.copy(maxLhs = 1)) else (noGen, sNoGen)
      val (full, sFull) = if (p.maxLhs >= 2) disc("discover", p) else (l1, sL1)
      val deps = full.map(_.deps).getOrElse(Seq.empty)
      val validated = table.validated(deps)
      cached()
      val (flagged, sDet) = span(check.detect(detect(validated)))
      LayerPass(sProf, sIdx, sNoGen, sL1, sFull, sDet, rows, kept, distinct,
        noGen.map(_.deps.size).getOrElse(0), l1.map(_.deps.count(_.isVariable)).getOrElse(0),
        deps.count(_.lhs.size >= 2), validated.map(_.pfd.tableau.size).sum,
        Outcome(deps, validated, flagged.getOrElse(Set.empty)))
    }

    def run(): Unit = {
      sc.addSparkListener(counters)
      // the first pass warms the JVM; both passes must do identical work
      val first = pass()
      val lp = pass()
      val repeatFailures = if (first.work == lp.work) 0 else {
        System.err.println(
          "self-test: (jobs, tasks, shuffle bytes) differ between identical passes: " +
          s"${first.work.mkString(" ")} vs ${lp.work.mkString(" ")}")
        1
      }
      sc.removeSparkListener(counters)
      // tracing overhead: the same discover/detect calls without the listener
      cached()
      val (_, plainDisc) = time(Discovery.discover(table.discoverDf, table.params))
      cached()
      val (_, plainDet) = time(detect(lp.outcome.validated))
      val q = new Quality(lp.outcome)
      val layers = Seq(
        "Profiler" -> lp.profile,
        "PatternIndex" -> lp.index,
        "Discovery.level1" -> (lp.noGen - lp.profile - lp.index),
        "Generalizer" -> (lp.level1 - lp.noGen),
        "Discovery.level2" -> (lp.full - lp.level1),
        "ErrorDetector" -> lp.detect)
      layers.foreach { case (name, s) =>
        out.metric(s"$name.wall_s", s.secs, "s")
        out.metric(s"$name.jobs", s.c.jobs.toDouble, "count")
        out.metric(s"$name.tasks", s.c.tasks.toDouble, "count")
        out.metric(s"$name.task_cpu_s", s.c.taskCpuNs / 1e9, "s")
        out.metric(s"$name.shuffle_mb", s.c.shuffleBytes / 1e6, "MB")
        out.metric(s"$name.driver_s", s.secs - s.c.jobMillis / 1e3, "s")
      }
      val (tokNs, emitted) = tokenizerCost()
      out.metric("PatternIndex.rows", lp.indexRows.toDouble, "count")
      out.metric("PatternIndex.kept_ratio", lp.keptPatterns.toDouble / lp.distinctPatterns, "ratio")
      out.metric("Tokenizer.ns_per_value", tokNs, "ns")
      out.metric("Tokenizer.kept_ratio", lp.indexRows / emitted, "ratio")
      out.metric("Discovery.level1.deps", lp.level1Deps.toDouble, "count")
      out.metric("Generalizer.accepted", lp.accepted.toDouble, "count")
      out.metric("Discovery.level2.deps", lp.level2Deps.toDouble, "count")
      q.perLayer(out)
      out.metric("ErrorDetector.tableau_rows", lp.tableauRows.toDouble, "count")
      out.metric("ErrorDetector.cells_flagged", lp.outcome.flagged.size.toDouble, "count")
      val (matchNs, keyNs) = cellCost(lp.outcome)
      out.metric("Cell.match_ns", matchNs, "ns")
      out.metric("Cell.key_ns", keyNs, "ns")
      out.metric("trace.overhead_discover_s", lp.full.secs - plainDisc, "s")
      out.metric("trace.overhead_detect_s", lp.detect.secs - plainDet, "s")
      Workloads.unload(table)
      out.metric("session.persisted_rdds", sc.getPersistentRDDs.size.toDouble, "count")
      out.finish(check.attempted, check.failed + repeatFailures + q.gateFailures,
                 repeatFailures == 0 && q.gateFailures == 0)
    }

    /** Qualitative column values of the discovery table: (name, tokenized, values). */
    private lazy val values: Seq[(String, Boolean, Array[String])] =
      Profiler.profile(table.discoverDf).filter(_.isQualitative).map { p =>
        (p.name, p.useTokenize,
         table.discoverDf.select(col(p.name).cast("string")).collect()
           .map(_.getString(0)).filter(_ != null))
      }

    /** (ns per value, parts emitted as PatternIndex would see them). */
    private def tokenizerCost(): (Double, Double) = {
      def one(): Long = values.map { case (_, tokenize, vs) =>
        vs.map(v => if (tokenize) Tokenizer.tokens(v).size + 1 else Tokenizer.ngrams(v).size).sum.toLong
      }.sum
      val emitted = one() // also warms the JIT
      val nValues = values.map(_._3.length).sum
      val t0 = System.nanoTime()
      var reps = 0
      while (reps < 3 || System.nanoTime() - t0 < 5e8) { one(); reps += 1 }
      ((System.nanoTime() - t0).toDouble / (reps.toLong * nValues), emitted.toDouble)
    }

    /** Per-call driver cost of `Cell.matches` and `Cell.key` for every cell
      * of the discovered dependencies, over up to 1000 values of its column.
      */
    private def cellCost(o: Outcome): (Double, Double) = {
      val byName = values.map(c => c._1 -> c._3.take(1000)).toMap
      val work = o.deps.flatMap(_.pfd.tableau).flatMap(tp => tp.lhsCells ++ tp.rhsCells)
        .flatMap { case (a, cell) => byName.get(a).map(cell -> _) }
      def timeCalls(f: (repro.core.Cell, String) => Boolean): Double = {
        var calls, hits = 0L
        work.foreach { case (c, vs) => vs.foreach(v => if (f(c, v)) hits += 1) } // warm-up
        val t0 = System.nanoTime()
        var reps = 0
        while (reps < 3 || System.nanoTime() - t0 < 3e8) {
          work.foreach { case (c, vs) => vs.foreach { v => calls += 1; if (f(c, v)) hits += 1 } }
          reps += 1
        }
        val ns = (System.nanoTime() - t0).toDouble
        if (hits < 0) println(hits) // keeps the calls observable
        if (calls == 0) 0.0 else ns / calls
      }
      (timeCalls(_.matches(_)), timeCalls(_.key(_).isDefined))
    }
  }
}

/** Collects metrics and notes; renders the human-readable lines followed by
  * the JSON result line.
  */
final class Report {
  private val lines = scala.collection.mutable.ArrayBuffer.empty[String]
  private val metrics = scala.collection.mutable.LinkedHashMap.empty[String, (Double, String)]
  private var status = (0L, 0L, false)

  def note(s: String): Unit = lines += s"# $s"
  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)
  def finish(attempted: Long, failed: Long, gatesOk: Boolean): Unit =
    status = (attempted, failed, gatesOk && failed == 0)

  def render(): String = {
    val (attempted, failed, correct) = status
    val body = metrics.map { case (k, (v, u)) =>
      val num = if (v.isNaN || v.isInfinite) "null" else v.toString
      s""""$k": {"value": $num, "unit": "$u"}"""
    }.mkString(", ")
    (lines ++ metrics.map { case (k, (v, u)) => f"$k%-34s $v%s $u" } :+
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
      .mkString("\n")
  }
}
