package perfbench

import java.util.IdentityHashMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import org.apache.spark.sql.util.QueryExecutionListener

/** A timed interval. `parent` is -1 for a root span; every span of one
  * operation shares its root's `trace` id. Times are microseconds since the
  * benchmark process started.
  */
final case class Span(id: Int, parent: Int, trace: Int, name: String, startUs: Double, endUs: Double)

/** Spans kept in memory and written once, when the benchmark ends. */
final class Spans {
  private val t0Nanos = System.nanoTime
  private val t0EpochMs = System.currentTimeMillis
  private val buf = ArrayBuffer.empty[Span]

  def nowUs: Double = (System.nanoTime - t0Nanos) / 1e3
  def epochMsToUs(ms: Long): Double = (ms - t0EpochMs) * 1e3

  def add(parent: Int, trace: Int, name: String, startUs: Double, endUs: Double): Span =
    synchronized {
      val s = Span(buf.size, parent, if (trace < 0) buf.size else trace, name, startUs, endUs)
      buf += s
      s
    }

  /** Time `body` as a span; returns its result and the span. */
  def timed[T](name: String, parent: Int = -1, trace: Int = -1)(body: => T): (T, Span) = {
    val start = nowUs
    val r = body
    (r, add(parent, trace, name, start, nowUs))
  }

  def all: Seq[Span] = synchronized(buf.toList)
}

/** What Spark did during one operation, as its listeners saw it. */
final case class SparkWork(
    actions: Int,
    actionNanos: Long,
    actionSpans: Seq[(String, Long, Long)], // (description, start epoch ms, end epoch ms)
    taskCpuNanos: Long,
    shuffleBytes: Long,
    scanSql: Seq[String],
    scanRowsOut: Long,
)

/** Collects Spark's view of each operation from its public listener APIs: a
  * `SparkListener` for SQL executions and task metrics, and a
  * `QueryExecutionListener` for the executed plans, whose `BatchScanExec`
  * descriptions carry the S3 Select SQL and whose `numOutputRows` metric is
  * the rows the `s3select` reader produced.
  *
  * Listener events arrive asynchronously. [[SparkTrace.endOp]] runs a one-task
  * marker job and waits for the listener to reach it; every event queued
  * before the marker belongs to the operation that just ended.
  */
object SparkTrace {
  private val MarkerKey = "perfbench.marker"

  @volatile private var active = false
  private var actions = 0
  private var actionNanos = 0L
  private val executions = scala.collection.mutable.LinkedHashMap.empty[Long, (String, Long, Long)]
  private var taskCpu = 0L
  private var shuffle = 0L
  private val scans = new IdentityHashMap[BatchScanExec, String]()
  private val markerStages = scala.collection.mutable.Set.empty[Int]
  private val done = scala.collection.mutable.Map.empty[Long, SparkWork]
  private var markers = 0L

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val marker = Option(e.properties).flatMap(p => Option(p.getProperty(MarkerKey)))
      marker.foreach { m =>
        SparkTrace.synchronized {
          markerStages ++= e.stageIds
          done(m.toLong) = snapshotAndReset()
          SparkTrace.notifyAll()
        }
      }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = SparkTrace.synchronized {
      if (!markerStages.contains(e.stageId) && e.taskMetrics != null) {
        taskCpu += e.taskMetrics.executorCpuTime
        shuffle += e.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
    }

    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case s: SparkListenerSQLExecutionStart => SparkTrace.synchronized {
        executions(s.executionId) = (s.description, s.time, -1L)
      }
      case s: SparkListenerSQLExecutionEnd => SparkTrace.synchronized {
        executions.get(s.executionId).foreach { case (d, t, _) => executions(s.executionId) = (d, t, s.time) }
      }
      case _ =>
    }
  }

  /** Called by [[QeListener]] for every finished Dataset action. */
  private[perfbench] def onAction(qe: QueryExecution, durationNs: Long): Unit =
    if (active) SparkTrace.synchronized {
      actions += 1
      actionNanos += durationNs
      collectScans(qe.executedPlan)
    }

  private def collectScans(p: SparkPlan): Unit = p match {
    case b: BatchScanExec          => scans.put(b, b.scan.description())
    case a: AdaptiveSparkPlanExec  => collectScans(a.executedPlan)
    case q: QueryStageExec         => collectScans(q.plan)
    case r: ReusedExchangeExec     => collectScans(r.child)
    case m: InMemoryTableScanExec  => collectScans(m.relation.cacheBuilder.cachedPlan)
    case other =>
      other.children.foreach(collectScans)
      other.subqueries.foreach(collectScans)
  }

  private def snapshotAndReset(): SparkWork = {
    val ss = scans.asScala.toSeq
    val w = SparkWork(
      actions, actionNanos,
      executions.values.filter(_._3 >= 0).toSeq,
      taskCpu, shuffle,
      ss.map(_._2).filter(_.startsWith("s3select ")).map(_.stripPrefix("s3select ")),
      ss.map { case (b, _) => b.metrics.get("numOutputRows").map(_.value).getOrElse(0L) }.sum)
    actions = 0; actionNanos = 0; executions.clear(); taskCpu = 0; shuffle = 0; scans.clear()
    w
  }

  def start(sc: SparkContext): Unit = {
    sc.addSparkListener(listener)
    endOp(sc) // discard anything queued before tracing began
    active = true
  }

  def stop(sc: SparkContext): Unit = {
    active = false
    sc.removeSparkListener(listener)
  }

  /** Mark the end of an operation and return the Spark work it caused. */
  def endOp(sc: SparkContext): SparkWork = {
    val id = SparkTrace.synchronized { markers += 1; markers }
    sc.setLocalProperty(MarkerKey, id.toString)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(MarkerKey, null)
    val deadline = System.currentTimeMillis + 30000
    SparkTrace.synchronized {
      while (!done.contains(id)) {
        val left = deadline - System.currentTimeMillis
        if (left <= 0) throw new IllegalStateException("Spark listener never reached the marker job")
        SparkTrace.wait(left)
      }
      done.remove(id).get
    }
  }
}

/** Registered through `spark.sql.queryExecutionListeners`; inert unless a
  * traced section is running.
  */
final class QeListener extends QueryExecutionListener {
  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    SparkTrace.onAction(qe, durationNs)
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
    SparkTrace.onAction(qe, 0L)
}
