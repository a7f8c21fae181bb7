package repro.s3

import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.sql.types.StructType
import SelectAst.SelectQuery

/** Client-side API to the simulated S3: S3 Select queries, whole-object GETs
  * and byte-range GETs. Every call attributes its traffic to the current
  * [[Sim]] phase. Queries are submitted as SQL *strings* — parsed here with
  * the 256 KB limit enforced, exactly like the real service.
  *
  * A select sends one request per object. As in PushdownDB, the requests of
  * a query without `LIMIT` run in parallel, on a fixed pool with one thread
  * per core; their results and metrics are recorded on the calling thread in
  * object-key order, so rows and [[Sim]] counters do not depend on which
  * request finishes first.
  */
final class S3Client(store: S3Store = S3Store.global, bucket: String = S3Client.DefaultBucket) {

  /** Run one S3 Select query against every object with the given prefix
    * and concatenate the results in object-key order.
    */
  def select(tableName: String, sql: String): Vector[Array[String]] = {
    val q = SelectParser.parse(sql)
    selectParsed(tableName, q)
  }

  /** [[select]] for a parsed query. A query with `LIMIT` is sent to one
    * object after another and stops once `limit` rows have been produced
    * (used by sampling algorithms: "read the first S records", §VII-A), so
    * only the objects it reached are charged.
    */
  def selectParsed(tableName: String, q: SelectQuery): Vector[Array[String]] = {
    val keys = objectKeys(tableName)
    // the objects of one table share a schema: lower the query once for all
    val lowered = SelectEngine.lower(q, store.get(bucket, keys.head).schema)
    q.limit match {
      case None =>
        val requests = keys.map { k =>
          val obj = store.get(bucket, k)
          S3Client.requestPool.submit(new Callable[SelectEngine.Result] {
            def call(): SelectEngine.Result = lowered.run(obj)
          })
        }
        requests.toVector.flatMap { r =>
          // a failed request fails the select with its own exception
          recordSelect(try r.get() catch { case e: ExecutionException => throw e.getCause })
        }
      case Some(limit) =>
        val out = Vector.newBuilder[Array[String]]
        var produced = 0L
        val it = keys.iterator
        while (it.hasNext && produced < limit) {
          val rows = recordSelect(lowered.run(store.get(bucket, it.next()), Some(limit - produced)))
          out ++= rows
          produced += rows.size
        }
        out.result()
    }
  }

  /** One S3 Select request against the object `key`. */
  def selectObject(key: String, q: SelectQuery): Vector[Array[String]] =
    recordSelect(SelectEngine.run(store.get(bucket, key), q))

  /** Whole-object GET of `key`: the baseline path that does not use S3
    * Select (no scan charge, full transfer, parsed at the server).
    */
  def getObject(key: String): Array[Array[String]] = {
    val obj = store.get(bucket, key)
    Sim.currentPhase.recordGet(obj.sizeBytes)
    Sim.currentPhase.localParse(obj.sizeBytes)
    obj.rows
  }

  private def recordSelect(res: SelectEngine.Result): Vector[Array[String]] = {
    Sim.currentPhase.recordSelect(res.scannedBytes, res.returnedBytes, res.exprFactor)
    Sim.currentPhase.localParse(res.returnedBytes) // server parses the CSV response
    res.rows
  }

  /** HTTP byte-range GET of one record (§IV-A phase 2). */
  def getRange(key: String, offset: Long, length: Int): Array[String] = {
    store.get(bucket, key) match {
      case c: CsvObject =>
        val bytes = c.range(offset, length)
        Sim.currentPhase.recordGet(length.toLong)
        CsvCodec.decodeLine(new String(bytes, java.nio.charset.StandardCharsets.UTF_8).stripLineEnd)
      case _ => throw new EvalException(s"range GET only supported on CSV objects: $key")
    }
  }

  def schemaOf(tableName: String): StructType = {
    val keys = objectKeys(tableName)
    store.get(bucket, keys.head).schema
  }

  def objectKeys(tableName: String): Seq[String] = {
    val keys = store.list(bucket, tableName + "/")
    if (keys.nonEmpty) keys
    else if (store.exists(bucket, tableName)) Seq(tableName)
    else throw new NoSuchElementException(s"no objects for table s3://$bucket/$tableName")
  }

  def tableBytes(tableName: String): Long =
    objectKeys(tableName).map(store.get(bucket, _).sizeBytes).sum

  def tableRows(tableName: String): Long =
    objectKeys(tableName).map(store.get(bucket, _).numRows.toLong).sum
}

object S3Client {
  val DefaultBucket = "tpch"

  /** Threads that serve parallel S3 Select requests: one per core. Daemon
    * threads, so an idle pool never keeps the JVM alive.
    */
  private val requestPool: ExecutorService = {
    val n = new AtomicInteger
    Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors, (r: Runnable) => {
      val t = new Thread(r, s"s3-select-${n.incrementAndGet()}")
      t.setDaemon(true)
      t
    })
  }
}
