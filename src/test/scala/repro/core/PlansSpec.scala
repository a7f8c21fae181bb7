package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.s3._
import repro.tpch.Tpch

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

/** How a plan phase is materialized. `Plans.force` and `Plans.toDriver`
  * each meter the scan once and count rows in the same job, and leave
  * nothing in Spark's cache. A `toDriver` frame is selected from or
  * collected without a Spark job, and broadcast without reading the store.
  */
class PlansSpec extends SparkSpec {

  private val sf = 0.01
  private def ensure(): Unit = TableCatalog.ensureTpch(spark, sf)

  private val Description = "spark.job.description"

  /** `body`'s value and the number of Spark jobs it started. Listener events
    * arrive asynchronously but in order, so the jobs counted are those that
    * start between two marker jobs.
    */
  private def jobsOf[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val started = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        started.add(String.valueOf(Option(e.properties).map(_.getProperty(Description)).orNull))
    }
    def marker(name: String): Unit = {
      sc.setJobDescription(name)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
    }
    sc.addSparkListener(listener)
    try {
      marker("jobsOf:begin")
      val out = body
      marker("jobsOf:end")
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!started.contains("jobsOf:end") && System.nanoTime() < deadline) Thread.sleep(5)
      val seen = started.asScala.toVector
      assert(seen.contains("jobsOf:begin") && seen.contains("jobsOf:end"), "marker jobs not seen")
      (out, seen.indexOf("jobsOf:end") - seen.indexOf("jobsOf:begin") - 1)
    } finally sc.removeSparkListener(listener)
  }

  /** Both Fig-10 columns, with the parameters of `Figures.fig10`. */
  private def fig10Plans: Seq[(String, () => PlanResult)] = {
    val scale = 10.0 / sf
    val k = 100
    val sOpt = TopKOps.optimalSampleSize(k, new S3Client().tableRows("lineitem"), 0.1)
    val filter = col("l_extendedprice") <= 900 + 1e-3 * 90000
    val joinP = JoinOps.Params(-950, None)
    Seq[(String, () => PlanResult)](
      "Filter baseline" -> (() => FilterOps.serverSide(spark, "lineitem", filter, scale)),
      "Filter optimized" -> (() => FilterOps.s3Side(spark, "lineitem", filter, scale)),
      "Join baseline" -> (() => JoinOps.baseline(spark, joinP, scale)),
      "Join optimized" -> (() => JoinOps.bloom(spark, joinP, scale)),
      "Group-by baseline" -> (() =>
        GroupByOps.serverSide(spark, "customer", "c_nationkey", Seq("c_acctbal"), scale)),
      "Group-by optimized" -> (() =>
        GroupByOps.s3Side(spark, "customer", "c_nationkey", Seq("c_acctbal"), scale)),
      "Top-K baseline" -> (() => TopKOps.serverSide(spark, "lineitem", "l_extendedprice", k, scale)),
      "Top-K optimized" -> (() =>
        TopKOps.sampling(spark, "lineitem", "l_extendedprice", k, sOpt, scale)),
    ) ++ Tpch.queries.flatMap { q =>
      Seq[(String, () => PlanResult)](
        s"${q.name} baseline" -> (() => Tpch.baseline(spark, q, scale)),
        s"${q.name} optimized" -> (() => Tpch.optimized(spark, q.name, scale)))
    }
  }

  test("force counts the rows of the frame it materializes") {
    ensure()
    Sim.reset()
    val f = Sim.inPhase("scan") {
      Plans.force(Plans.read(spark, "lineitem").where(col("l_extendedprice") <= 5000))
    }
    assert(f.rows == f.df.count())
    assert(f.rows > 0)
    assert(f.df.rdd.getNumPartitions == new S3Client().objectKeys("lineitem").size)
    assert(Sim.get("scan").selectRequests == f.df.rdd.getNumPartitions)
  }

  test("toDriver meters its phase with one job and counts its rows") {
    ensure()
    Sim.reset()
    val (f, jobs) = jobsOf {
      Sim.inPhase("scan") {
        Plans.toDriver(Plans.read(spark, "lineitem").where(col("l_extendedprice") <= 5000))
      }
    }
    assert(jobs == 1)
    assert(f.rows > 0)
    assert(f.rows == f.df.count())
    assert(Sim.get("scan").selectRequests == new S3Client().objectKeys("lineitem").size)
  }

  test("a toDriver frame is read back without a store read, and collected without a job") {
    ensure()
    Sim.reset()
    val build = Sim.inPhase("build") {
      Plans.toDriver(Plans.read(spark, "customer").where(col("c_acctbal") <= -950)
        .select("c_custkey", "c_acctbal"))
    }
    val probe = Sim.inPhase("probe") {
      Plans.force(Plans.read(spark, "orders").select("o_custkey", "o_totalprice"))
    }
    val metered = Sim.snapshot()

    val (rows, collectJobs) = jobsOf(build.df.collect())
    assert(collectJobs == 0)
    assert(rows.length == build.rows)
    val (keys, selectJobs) = jobsOf(build.df.select("c_custkey").collect())
    assert(selectJobs == 0)
    assert(keys.map(_.getLong(0)).toSeq == rows.map(_.getLong(0)).toSeq)

    // As a broadcast build side it adds one job to the probe's query: Spark's
    // broadcast exchange collects its child through an RDD, here a
    // driver-local one over the held rows, so the store is not read.
    val probeOnly = jobsOf(probe.df.agg(sum("o_totalprice")).collect())._2
    val (joined, joinJobs) = jobsOf(
      probe.df.join(broadcast(build.df), col("o_custkey") === col("c_custkey"))
        .agg(sum("o_totalprice")).collect())
    assert(joinJobs == probeOnly + 1)
    val keySet = keys.map(_.getLong(0)).toSet
    val expected = probe.df.collect().filter(r => keySet(r.getLong(0))).map(_.getDouble(1)).sum
    assert(math.abs(joined(0).getDouble(0) - expected) < 1e-6 * math.abs(expected))
    assert(Sim.snapshot() == metered)
  }

  test("Fig-10 plans leave the cache empty and are not re-read by later actions") {
    ensure()
    spark.catalog.clearCache()
    fig10Plans.foreach { case (name, run) =>
      val r = run()
      assert(spark.sharedState.cacheManager.isEmpty, s"$name left a cached frame")
      val metered = Sim.snapshot()
      assert(metered == r.phases, name)
      val (_, jobs) = jobsOf(r.df.collect())
      assert(jobs == 0, s"$name: collecting its result started a Spark job")
      assert(Sim.snapshot() == metered, s"$name: a second action on its result read S3 again")
    }
  }
}
