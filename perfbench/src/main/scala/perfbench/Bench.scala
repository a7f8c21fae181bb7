package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, sum}
import repro.SynthData
import repro.core.{PlanResult, TableCatalog}
import repro.s3.{S3Client, S3Store}

/** The repository benchmark: runs one workload in this JVM and prints every
  * metric of the run as one JSON line, last on standard output.
  *
  * {{{
  * Bench --workload server|pushdown --seed N --seconds S --trace 0|1 [--out DIR]
  * }}}
  *
  * One closed-loop client runs the workload's plans round-robin, because
  * `Sim` keeps one JVM-global current phase and so admits one plan at a
  * time. Set-up is repeated [[SetupReps]] times and its median reported.
  * One untimed warm-up pass precedes timing; it also computes the reference
  * answers. With `--trace 1` the timed passes alternate untraced and
  * traced, the layer probes follow, and the spans go to `DIR`.
  */
object Bench {

  val SetupReps = 3

  /** About how long one pass over each workload's plans takes on a 4-core
    * host. `--seconds` buys one whole pass per this many seconds. Whole
    * passes keep every plan equally often in the sample; a fixed count keeps
    * the sample size the same in every run.
    */
  val PassSeconds: Map[String, Double] = Map("server" -> 6.5, "pushdown" -> 6.0)

  /** The tests use 64; on tables this small most of those tasks are empty,
    * and 16 makes a server pass about 20% shorter, so that three passes fit
    * the run. Answers do not depend on it.
    */
  val ShufflePartitions = 16

  /** Rows of each table loaded into DuckDB by the oracle probe: about the
    * size of the SF-0.001 tables a TpchSpec check loads.
    */
  val OracleRowsPerTable = 2000

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: String)

  final case class Setup(spark: SparkSession, sparkMs: Double, synthMs: Double, registerMs: Double,
                         indexMs: Double, fingerprint: Map[String, Any]) {
    def totalS: Double = (sparkMs + synthMs + registerMs + indexMs) / 1e3
  }

  final case class Sample(op: Op, ms: Double, outcome: Option[Outcome], ok: Boolean,
                          work: Option[SparkWork] = None)

  final case class Section(samples: Seq[Sample], seconds: Double, passes: Int, gcMs: Double,
                           heapBeforeMb: Double, heapAfterMb: Double, hostMs: Seq[Double]) {
    /** The factor that takes a wall-clock time of this section to the host
      * speed at which the [[HostSpeed]] kernel takes its reference time.
      */
    def hostScale: Double = HostSpeed.ReferenceMs / Stats.median(hostMs)
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val code = try { run(args); 0 } catch {
      case NonFatal(e) =>
        Console.err.println(s"perfbench: ${e.getClass.getName}: ${e.getMessage}")
        e.printStackTrace()
        1
    }
    System.exit(code)
  }

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = m.getOrElse("workload", sys.error("--workload is required"))
    require(Workloads.Names.contains(workload), s"unknown workload '$workload'")
    Args(workload, m.getOrElse("seed", "1").toLong, m.getOrElse("seconds", "10").toInt,
      m.getOrElse("trace", "0") == "1", m.getOrElse("out", ".bench_build/perfbench"))
  }

  // ------------------------------------------------------------------ setup
  private[perfbench] def newSession(): SparkSession =
    SparkSession.builder()
      .master("local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.queryExecutionListeners", classOf[QeListener].getName)
      .getOrCreate()

  private def ms(t0: Long): Double = (System.nanoTime - t0) / 1e6

  private val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime

  /** Progress on standard error, with seconds since the JVM started. */
  private def log(msg: String): Unit =
    Console.err.println(f"perfbench: ${(System.currentTimeMillis - jvmStart) / 1e3}%7.1f s  $msg")

  /** Start Spark, generate the seeded tables, register them and build the
    * Fig-1 index, timing each step.
    */
  private[perfbench] def setupOnce(workload: String, data: DataSpec, spans: Spans): Setup = {
    val root = spans.add(-1, -1, "setup", spans.nowUs, spans.nowUs)
    def step[T](name: String)(body: => T): (T, Double) = {
      val (r, s) = spans.timed(name, root.id, root.trace)(body)
      (r, (s.endUs - s.startUs) / 1e3)
    }
    val (spark, sparkMs) = step("setup.spark") { newSession() }
    val floats =
      if (workload == "pushdown")
        Seq(Workloads.FloatTable -> SynthData.floatTable(spark, Workloads.FloatRows, Workloads.FloatCols, data.floatSeed))
      else Nil
    val (dfs, synthMs) = step("synth") {
      (data.tables(spark) ++ floats).map { case (n, df) => val c = df.cache(); c.count(); n -> c }
    }
    val (_, registerMs) = step("catalog.register") {
      dfs.foreach { case (n, df) =>
        TableCatalog.register(df, n, data.shards)
        if (floats.exists(_._1 == n)) TableCatalog.registerColumnar(df, n, data.shards)
      }
    }
    val (_, indexMs) = step("catalog.index") { TableCatalog.buildIndex("lineitem", "l_extendedprice") }
    val client = new S3Client()
    val rows = dfs.map { case (n, df) => n -> df.count() }
    rows.foreach { case (n, r) =>
      require(client.tableRows(n) == r, s"store holds ${client.tableRows(n)} rows of $n, generated $r")
    }
    val fingerprint = Map[String, Any](
      "rows" -> rows.toMap,
      "sum_l_extendedprice" -> dfs.find(_._1 == "lineitem").get._2.agg(sum(col("l_extendedprice"))).head().getDouble(0),
      "store_bytes" -> S3Store.global.totalBytes(TableCatalog.Bucket, ""))
    dfs.foreach(_._2.unpersist(blocking = true))
    Setup(spark, sparkMs, synthMs, registerMs, indexMs, fingerprint)
  }

  // -------------------------------------------------------------- operations
  private def attempt(op: Op): (Double, Either[Throwable, Outcome]) = {
    val t0 = System.nanoTime
    val r = try Right(op.exec()) catch { case NonFatal(e) => Left(e) }
    (ms(t0), r)
  }

  private def heapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  private def gcMs(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum.toDouble

  /** Run `passes` whole passes over `ops`, one operation after another,
    * timing the [[HostSpeed]] kernel after each. Passes for which
    * `traced(pass)` holds record spans and Spark's work.
    */
  private def timedSection(spark: SparkSession, ops: Seq[Op], passes: Int, traced: Int => Boolean,
                           refs: Map[String, Vector[String]], spans: Spans): Section = {
    val heapBefore = heapMb()
    val gc0 = gcMs()
    val samples = Vector.newBuilder[Sample]
    val hostMs = Vector.newBuilder[Double]
    HostSpeed.warmUp()
    val t0 = System.nanoTime
    for (pass <- 0 until passes) {
      val tracing = traced(pass)
      if (tracing) SparkTrace.start(spark.sparkContext)
      for (op <- ops) {
        val start = spans.nowUs
        val (took, r) = attempt(op)
        val end = spans.nowUs
        val work = if (tracing) {
          val root = spans.add(-1, -1, s"op ${op.name}", start, end)
          val w = SparkTrace.endOp(spark.sparkContext)
          w.actionSpans.foreach { case (d, s, e) =>
            spans.add(root.id, root.trace, s"spark.action $d", spans.epochMsToUs(s), spans.epochMsToUs(e))
          }
          Some(w)
        } else None
        val ok = r match {
          case Right(o) => refs.get(op.name).forall(_ == op.canonical(o.rows))
          case Left(e)  => Console.err.println(s"perfbench: ${op.name} failed: $e"); false
        }
        if (!ok && r.isRight) Console.err.println(s"perfbench: ${op.name} result differs from its warm-up result")
        samples += Sample(op, took, r.toOption, ok, work)
        hostMs += HostSpeed.sampleMs()
      }
      if (tracing) SparkTrace.stop(spark.sparkContext)
    }
    val seconds = (System.nanoTime - t0) / 1e9
    val gc = gcMs() - gc0
    Section(samples.result(), seconds, passes, gc, heapBefore, heapMb(), hostMs.result())
  }

  // ------------------------------------------------------------------- run
  def run(args: Args): Unit = {
    val spans = new Spans
    val data = Workloads.data(args.seed)

    var setups = Vector.empty[Setup]
    for (_ <- 1 to SetupReps) {
      setups.lastOption.foreach(_.spark.stop())
      setups :+= setupOnce(args.workload, data, spans)
    }
    val spark = setups.last.spark
    log(s"set-up done (${setups.map(s => f"${s.totalS}%.2f s").mkString(", ")})")
    require(setups.map(_.fingerprint).distinct.size == 1, "set-up repetitions generated different data")

    val sc = spark.sparkContext
    val host = Map[String, Any](
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
      "java" -> System.getProperty("java.version"),
      "spark" -> spark.version,
      "commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.source", "unknown"),
      "workload" -> args.workload, "seed" -> args.seed, "sf" -> data.sf, "shards" -> data.shards,
      "seconds" -> args.seconds, "trace" -> args.trace)
    println("host " + Json(host))
    println("fingerprint " + Json(setups.last.fingerprint))

    val (own, other) =
      if (args.workload == "server") (Workloads.server(spark, data.sf), Workloads.pushdown(spark, data.sf).filter(_.fig10))
      else (Workloads.pushdown(spark, data.sf), Workloads.server(spark, data.sf))

    // ---- warm-up and correctness gate
    var warmFailed = 0
    def warm(ops: Seq[Op]): Map[String, Outcome] = ops.flatMap { op =>
      attempt(op)._2 match {
        case Right(o) => Some(op.name -> o)
        case Left(e)  => warmFailed += 1; Console.err.println(s"perfbench: warm-up ${op.name} failed: $e"); None
      }
    }.toMap
    val otherOut = warm(other)
    log("other column warm")
    val ownOut = warm(own)
    log("own column warm")
    val refs = ownOut.map { case (n, o) => n -> own.find(_.name == n).get.canonical(o.rows) }
    val mismatches = own.filter(op => refs.contains(op.name)).flatMap { op =>
      val mine = refs(op.name)
      val theirs = other.find(_.name == op.pair).flatMap(o => otherOut.get(o.name).map(x => o.canonical(x.rows)))
        .orElse(refs.get(op.pair))
      if (theirs.contains(mine)) None else Some(op.name)
    }
    mismatches.foreach(n => Console.err.println(s"perfbench: ${n} disagrees with the other Fig-10 column"))

    val fig10 = {
      val (base, opt) = if (args.workload == "server") (ownOut, otherOut) else (otherOut, ownOut)
      def modeled(out: Map[String, Outcome]) =
        own.filter(_.fig10).flatMap(op => out.get(op.name).map(op.name -> _.result)).toMap
      Fig10Shape(modeled(base), modeled(opt))
    }
    println("fig10 " + Json(fig10.toMap))

    // ---- timed sections
    // A traced run alternates untraced and traced passes, so both see the
    // same JIT and heap state and their difference is the tracing overhead.
    val passes = math.max(1, math.round(args.seconds / PassSeconds(args.workload)).toInt)
    val section =
      if (args.trace) timedSection(spark, own, math.max(2, passes), _ % 2 == 1, refs, spans)
      else timedSection(spark, own, passes, _ => false, refs, spans)
    log(f"timed section done: ${section.samples.size} ops in ${section.seconds}%.1f s")

    val attempted = own.size + other.size + section.samples.size
    val failed = warmFailed + mismatches.size + section.samples.count(!_.ok)
    val timed = section.samples.filter(_.work.isEmpty)
    val planMs = own.map(op => op.name -> timed.filter(_.op eq op).map(_.ms))
    val modeledPlans: Seq[PlanResult] = own.filter(_.fig10).flatMap(op => ownOut.get(op.name)).map(_.result)
    val wall = Map(
      "op_ms_p50" -> Stats.geomean(planMs.map(p => Stats.median(p._2))),
      "op_ms_tail" -> Stats.geomean(planMs.map(_._2.max)),
      "ops_per_s" -> section.samples.size / (section.samples.map(_.ms).sum / 1e3))
    val scale = section.hostScale
    val endToEnd = Seq(
      ("op_ms_p50", wall("op_ms_p50") * scale, "ms"),
      ("op_ms_tail", wall("op_ms_tail") * scale, "ms"),
      ("ops_per_s", wall("ops_per_s") / scale, "1/s"),
      ("setup_s", Stats.median(setups.map(_.totalS)), "s"),
      ("success_rate", 1.0 - failed.toDouble / attempted, "ratio"),
      ("heap_mb", section.heapAfterMb, "MB"),
      ("modeled_s_geomean", Stats.geomean(modeledPlans.map(_.runtimeSeconds)), "s"),
      ("modeled_usd_geomean", Stats.geomean(modeledPlans.map(_.cost.total)), "usd"),
    )
    // The pooled percentiles, over every timed operation of every plan. The
    // mix spans 3 ms scans to 2 s joins, so each is one plan's latency.
    val pooled = timed.map(_.ms)
    val (tailP, tailV) = Stats.tail(pooled)
    val sample = Map("plans" -> own.size, "passes" -> section.passes, "samples" -> timed.size,
      "pooled_p50_ms" -> Stats.median(pooled), "pooled_tail_percentile" -> tailP, "pooled_tail_ms" -> tailV)
    println("sample " + Json(sample))
    val hostSpeed = Map("kernel_ms_p50" -> Stats.median(section.hostMs), "reference_ms" -> HostSpeed.ReferenceMs,
      "scale" -> scale, "unscaled" -> wall)
    println("host_speed " + Json(hostSpeed))

    val correct = failed == 0 && fig10.ok
    val metrics = if (args.trace) perLayer(spark, data, setups, section, spans) else endToEnd
    val result = Map[String, Any](
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> scala.collection.immutable.ListMap(metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) }: _*))

    val outDir = Paths.get(args.out)
    Files.createDirectories(outDir)
    val tag = s"${args.workload}_seed${args.seed}_trace${if (args.trace) 1 else 0}"
    val detail = Map[String, Any]("host" -> host, "fingerprint" -> setups.last.fingerprint, "fig10" -> fig10.toMap,
      "sample" -> sample, "host_speed" -> hostSpeed,
      "plan_ms_p50" -> scala.collection.immutable.ListMap(planMs.map(p => p._1 -> Stats.median(p._2)): _*),
      "result" -> result)
    Files.write(outDir.resolve(s"result_$tag.json"), Json(detail).getBytes(StandardCharsets.UTF_8))
    if (args.trace) {
      val js = spans.all.map(s => Map("id" -> s.id, "parent" -> s.parent, "trace" -> s.trace, "name" -> s.name,
        "start_us" -> s.startUs, "end_us" -> s.endUs))
      Files.write(outDir.resolve(s"spans_$tag.json"), Json(js).getBytes(StandardCharsets.UTF_8))
    }
    spark.stop()
    log("done")
    println(Json(result))
  }

  // -------------------------------------------------------------- per layer
  private def perLayer(spark: SparkSession, data: DataSpec, setups: Seq[Setup],
                       section: Section, spans: Spans): Seq[(String, Double, String)] = {
    val (t, plain) = section.samples.partition(_.work.isDefined)
    val perPass = section.samples.size.toDouble / section.passes / t.size // 1 / traced passes
    def passSum(f: Sample => Double): Double = t.map(f).sum * perPass
    val phases = t.flatMap(_.outcome).flatMap(_.result.phases)
    val work = t.flatMap(_.work)
    val scanned = phases.map(_.scannedBytes).sum
    val selectReturned = phases.filter(_.selectRequests > 0).map(_.returnedBytes).sum
    val MB = 1e6

    val probes = new Probes(spark, spans)
    val captured = work.flatMap(_.scanSql).distinct
    val blooms = probes.bloomPredicates()
    val caseSql = probes.caseSql()
    val parseUsPerKb = probes.parser(captured ++ blooms.map("SELECT * FROM S3Object WHERE " + _) :+ caseSql)
    val (filterNs, filterRows) = probes.engine("filter",
      s"SELECT * FROM S3Object WHERE l_extendedprice <= ${Workloads.FilterHi}")
    val (bloomNs, bloomRows) = blooms.lastOption.map(b => probes.engine("bloom",
      s"SELECT l_partkey, l_quantity, l_extendedprice FROM S3Object WHERE $b")).getOrElse((0.0, 0L))
    val (caseNs, caseRows) = probes.engine("case", caseSql)
    val (encNs, decNs) = probes.codec()
    val rangeUs = probes.rangeGets()
    val rowNs = probes.toInternalRow()
    val (loadMs, rowsLoaded, checkMs) = probes.oracle(data.tables(spark), OracleRowsPerTable)

    val planNames = (Workloads.server(spark, data.sf) ++ Workloads.pushdown(spark, data.sf)).map(_.name).distinct
    val planMs = planNames.map { n =>
      val xs = plain.filter(_.op.name == n).map(_.ms)
      (s"plan.$n.ms_p50", if (xs.isEmpty) 0.0 else Stats.median(xs), "ms")
    }
    def opP50(xs: Seq[Sample]) = Stats.geomean(xs.groupBy(_.op.name).values.map(s => Stats.median(s.map(_.ms))).toSeq)
    val untracedP50 = opP50(plain)
    val tracedP50 = opP50(t)

    Seq(
      ("setup.spark_ms", Stats.median(setups.map(_.sparkMs)), "ms"),
      ("synth.ms", Stats.median(setups.map(_.synthMs)), "ms"),
      ("catalog.register_ms", Stats.median(setups.map(_.registerMs)), "ms"),
      ("catalog.index_ms", Stats.median(setups.map(_.indexMs)), "ms"),
      ("s3.store.mb", S3Store.global.totalBytes(TableCatalog.Bucket, "") / MB, "MB"),
      ("s3.select_requests", phases.map(_.selectRequests).sum * perPass, "count"),
      ("s3.get_requests", phases.map(_.getRequests).sum * perPass, "count"),
      ("s3.scanned_mb", scanned / MB * perPass, "MB"),
      ("s3.returned_mb", phases.map(_.returnedBytes).sum / MB * perPass, "MB"),
      ("s3.returned_per_scanned", if (scanned == 0) 0.0 else selectReturned.toDouble / scanned, "ratio"),
      ("s3.local_parsed_mb", phases.map(_.localParsedBytes).sum / MB * perPass, "MB"),
      ("s3.expr_factor_max", if (phases.isEmpty) 1.0 else phases.map(_.exprFactor).max, "factor"),
      ("s3.parser.sql_kb", work.flatMap(_.scanSql).map(_.length).sum / 1024.0 * perPass, "KB"),
      ("s3.parser.us_per_kb", parseUsPerKb, "us/KB"),
      ("s3.engine.ns_per_row.filter", filterNs, "ns"),
      ("s3.engine.ns_per_row.bloom", bloomNs, "ns"),
      ("s3.engine.ns_per_row.case", caseNs, "ns"),
      ("s3.engine.rows", (filterRows + bloomRows + caseRows).toDouble, "count"),
      ("s3.codec.encode_ns_per_byte", encNs, "ns/B"),
      ("s3.codec.decode_ns_per_byte", decNs, "ns/B"),
      ("s3.client.range_get_us", rangeUs, "us"),
      ("datasource.ns_per_row", rowNs, "ns"),
      ("datasource.rows_out", work.map(_.scanRowsOut).sum * perPass, "count"),
      ("spark.actions", work.map(_.actions).sum * perPass, "count"),
      ("spark.action_ms", work.map(_.actionNanos).sum / 1e6 * perPass, "ms"),
      ("spark.task_cpu_ms", work.map(_.taskCpuNanos).sum / 1e6 * perPass, "ms"),
      ("spark.shuffle_mb", work.map(_.shuffleBytes).sum / MB * perPass, "MB"),
      ("core.bloom.predicate_kb",
        work.flatMap(_.scanSql).filter(_.contains("SUBSTRING(")).map(_.length).sum / 1024.0 * perPass, "KB"),
      ("core.bloom.degraded",
        passSum(_.outcome.map(_.result.info.values.count(_ == "degraded").toDouble).getOrElse(0.0)), "count"),
      ("core.driver_ms", passSum(s => s.ms - s.work.map(_.actionNanos / 1e6).getOrElse(0.0)), "ms"),
    ) ++ planMs ++ Seq(
      ("oracle.ms", checkMs, "ms"),
      ("oracle.load_ms", loadMs, "ms"),
      ("oracle.rows_loaded", rowsLoaded.toDouble, "count"),
      ("jvm.gc_ms", section.gcMs / section.passes, "ms"),
      ("jvm.heap_growth_mb", section.heapAfterMb - section.heapBeforeMb, "MB"),
      ("trace.op_ms_p50", tracedP50, "ms"),
      ("trace.overhead_ms", tracedP50 - untracedP50, "ms"),
      ("trace.spans", spans.all.size.toDouble, "count"),
    )
  }
}

/** Fig 10's summary over the ten plan pairs: geo-mean modeled speedup of
  * the optimized over the baseline column, and geo-mean cost ratio. The
  * bounds are the ones `Fig10TpchBench` asserts.
  */
final case class Fig10Shape(plans: Int, speedup: Double, costRatio: Double) {
  def ok: Boolean = plans == 10 && speedup > 3.0 && costRatio < 1.1
  def toMap: Map[String, Any] =
    Map("plans" -> plans, "speedup" -> speedup, "cost_ratio" -> costRatio, "ok" -> ok)
}

object Fig10Shape {
  def apply(base: Map[String, PlanResult], opt: Map[String, PlanResult]): Fig10Shape = {
    val pairs = base.keys.toSeq.sorted.flatMap(n => opt.get(n).map(base(n) -> _))
    Fig10Shape(pairs.size,
      Stats.geomean(pairs.map { case (b, o) => b.runtimeSeconds / o.runtimeSeconds }),
      Stats.geomean(pairs.map { case (b, o) => o.cost.total / b.cost.total }))
  }
}
