package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions.{count, lit}
import org.apache.spark.storage.StorageLevel
import repro.s3._

import scala.jdk.CollectionConverters._

/** Result of executing one operator strategy / query plan: the (real)
  * result rows, the measured per-phase IO metrics, and the modeled runtime
  * and dollar cost at paper scale.
  */
final case class PlanResult(
    df: DataFrame,
    phases: Vector[PhaseView],
    runtimeSeconds: Double,
    cost: CostBreakdown,
    info: Map[String, String] = Map.empty,
) {
  def bytesReturned: Long = phases.map(_.returnedBytes).sum
  def bytesScanned: Long  = phases.map(_.scannedBytes).sum
  def getRequests: Long   = phases.map(_.getRequests).sum
}

/** A frame materialized by [[Plans.force]] or [[Plans.toDriver]], and its
  * row count.
  */
final case class Forced(df: DataFrame, rows: Long)

object Plans {

  /** Read a stored table through the `s3select` DataSource. */
  def read(spark: SparkSession, table: String, pushdown: Boolean = true,
           extraWhere: Option[String] = None): DataFrame = {
    val r = spark.read.format("s3select")
      .option("table", table)
      .option("pushdown", if (pushdown) "on" else "off")
    extraWhere.fold(r)(w => r.option("extraWhere", w)).load()
  }

  /** Materialize `df` inside the current phase with one Spark job, so its
    * scan metrics are recorded exactly once and later actions read the
    * materialized rows instead of the store.
    *
    * `localCheckpoint` keeps the frame's partitioning (one partition per
    * stored object for a scan), so Spark's partial aggregates downstream
    * keep their order. Its blocks are stored serialized, so putting one
    * copies bytes instead of sampling the size of every row object; they
    * may spill to disk but are never dropped, because a dropped block would
    * be recomputed from the scan, reading the store and metering the phase
    * again (so never a `MEMORY_ONLY*` level). It registers nothing in the
    * `CacheManager`; the plan frees the blocks with [[release]]. The row
    * count is observed by the same job, so callers that charge `localWork`
    * per row need no second action.
    */
  def force(df: DataFrame): Forced = {
    val observed = df.observe(RowsMetric, count(lit(1)))
    val materialized = observed.localCheckpoint(eager = true, StorageLevel.MEMORY_AND_DISK_SER)
    Forced(materialized, observed.queryExecution.observedMetrics(RowsMetric).getLong(0))
  }

  private val RowsMetric = "rows"

  /** Free the blocks of frames materialized by [[force]] once the plan that
    * made them holds its result on the driver. Left alone, the blocks stay
    * in memory until a garbage collection finds the frame unreachable and
    * Spark's `ContextCleaner` then removes them, so the heap carries the
    * whole-table loads of earlier plans for as long as no old-generation
    * collection runs. A released frame must not be read again: its blocks
    * are gone, and reading it fails instead of reading the store.
    * Frames from [[toDriver]] hold no blocks and are left as they are.
    */
  def release(frames: Forced*): Unit =
    frames.flatMap(_.df.queryExecution.logical.collect { case r: LogicalRDD => r.rdd })
      .foreach(_.unpersist(blocking = false))

  /** Materialize `df` inside the current phase by collecting its rows to the
    * driver with one Spark job: the server holds what it read, as the paper's
    * server does with each phase's S3 Select result (§V, §VII).
    *
    * The returned frame is a local relation over those rows: selecting
    * columns from it or collecting it again starts no Spark job, and
    * broadcasting it as a join's build side reads the driver's rows, never
    * the store (Spark's broadcast exchange still runs one job over them,
    * since it collects its child through an RDD). Use it for rows the
    * driver itself reads (Bloom keys, build sides, plan results); rows that
    * only feed Spark operators stay partitioned with [[force]], because
    * large local relations are slow to scan downstream.
    */
  def toDriver(df: DataFrame): Forced = {
    val rows = df.collect()
    Forced(df.sparkSession.createDataFrame(rows.toSeq.asJava, df.schema), rows.length)
  }

  /** Modeled runtime of a timeline: outer Seq = sequential stages, inner
    * Seq = phases running in parallel within a stage (max).
    */
  def runtimeOf(timeline: Seq[Seq[String]], scale: Double): Double = {
    timeline.map { par =>
      par.map(name => RuntimeModel.phaseSeconds(Sim.get(name), scale)).max
    }.sum
  }

  /** Snapshot phases + compute runtime/cost for the finished plan. */
  def finish(df: DataFrame, timeline: Seq[Seq[String]], scale: Double,
             info: Map[String, String] = Map.empty): PlanResult = {
    val runtime = runtimeOf(timeline, scale)
    val phases  = Sim.snapshot()
    PlanResult(df, phases, runtime, RuntimeModel.cost(phases, runtime, scale), info)
  }
}
