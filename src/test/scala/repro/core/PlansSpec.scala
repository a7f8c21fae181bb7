package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.experiments.Figures
import repro.s3._

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

/** How a plan phase is materialized. `Plans.force` and `Plans.toDriver`
  * each meter the scan once and count rows in the same job, and leave
  * nothing in Spark's cache. A `force` frame keeps serialized blocks. A `toDriver` frame is selected from or
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

  /** Both Fig-10 columns, as `Figures.fig10` runs them. */
  private def fig10Plans: Seq[(String, () => PlanResult)] =
    Figures.fig10Plans(spark, sf).flatMap { case (name, baseline, optimized) =>
      Seq(s"$name baseline" -> baseline, s"$name optimized" -> optimized)
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

  test("force stores serialized blocks, meters its phase once, and is read twice without the store") {
    ensure()
    Sim.reset()
    val f = Sim.inPhase("scan") {
      Plans.force(Plans.read(spark, "lineitem").where(col("l_extendedprice") <= 5000))
    }
    val objects = new S3Client().objectKeys("lineitem").size
    assert(Sim.get("scan").selectRequests == objects)
    val metered = Sim.snapshot()

    val rdd = f.df.queryExecution.logical.collectFirst { case r: LogicalRDD => r.rdd }.get
    assert(rdd.getStorageLevel == StorageLevel.MEMORY_AND_DISK_SER)
    val stored = spark.sparkContext.getRDDStorageInfo.find(_.id == rdd.id).get
    assert(stored.storageLevel == StorageLevel.MEMORY_AND_DISK_SER)
    assert(stored.numCachedPartitions == objects)

    assert(f.df.collect().length == f.rows)
    assert(f.df.agg(sum("l_extendedprice")).collect().length == 1)
    assert(Sim.snapshot() == metered)

    Plans.release(f)
    assert(!spark.sparkContext.getPersistentRDDs.contains(rdd.id))
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
      val persisted = spark.sparkContext.getPersistentRDDs.keySet
      val r = run()
      assert(spark.sharedState.cacheManager.isEmpty, s"$name left a cached frame")
      assert(spark.sparkContext.getPersistentRDDs.keySet == persisted, s"$name kept checkpointed blocks")
      assert(spark.catalog.listTables().collect().forall(!_.isTemporary), s"$name left a temp view")
      val metered = Sim.snapshot()
      assert(metered == r.phases, name)
      val (_, jobs) = jobsOf(r.df.collect())
      assert(jobs == 0, s"$name: collecting its result started a Spark job")
      assert(Sim.snapshot() == metered, s"$name: a second action on its result read S3 again")
    }
  }
}
