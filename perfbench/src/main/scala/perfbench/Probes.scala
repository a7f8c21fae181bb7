package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.core.{BloomFilter, TableCatalog}
import repro.s3._
import repro.s3.datasource.RowCodecs
import repro.tpch.Tpch

/** Layer probes for the traced run: direct, timed calls into the public
  * function of each layer, on the workload's own data and SQL. Each call is
  * recorded as a span under one `probes` root span.
  */
final class Probes(spark: SparkSession, spans: Spans) {

  private val client = new S3Client()
  private val store = S3Store.global
  private val root = spans.add(-1, -1, "probes", spans.nowUs, spans.nowUs)

  private def timed[T](name: String)(body: => T): (T, Double) = {
    val (r, s) = spans.timed(name, root.id, root.trace)(body)
    (r, (s.endUs - s.startUs) * 1e3)
  }

  private def keys(table: String, sql: String): Vector[Long] =
    Sim.inPhase("probe") { client.select(table, sql).map(_(0).toLong) }

  /** Bloom predicates built the way the Join, Q3 and Q17 plans build them. */
  def bloomPredicates(): Seq[String] = Seq(
    ("customer", s"SELECT c_custkey FROM S3Object WHERE c_acctbal <= ${Workloads.JoinParams.upperAcct}", "o_custkey"),
    ("customer", s"SELECT c_custkey FROM S3Object WHERE c_mktsegment = '${Tpch.Q3Seg}'", "o_custkey"),
    ("part", "SELECT p_partkey FROM S3Object WHERE p_brand = 'Brand#23' AND p_container = 'MED BOX'", "l_partkey"),
  ).flatMap { case (table, sql, attr) =>
    val ks = keys(table, sql)
    timed("core.bloom.buildWithinLimit") { BloomFilter.buildWithinLimit(ks, 0.01, attr) }._1
      .map(_._1.toSqlPredicate(attr))
  }

  /** Optimized Q1's phase-2 query: 6 groups x 5 CASE-encoded sums. */
  def caseSql(): String = {
    val datePred = s"l_shipdate <= '${Tpch.Q1Date}'"
    val groups = Sim.inPhase("probe") {
      client.select("lineitem", s"SELECT l_returnflag, l_linestatus FROM S3Object WHERE $datePred")
    }.map(r => (r(0), r(1))).distinct.sorted
    val terms = Seq("l_quantity", "l_extendedprice", "(l_extendedprice * (1 - l_discount))",
      "(l_extendedprice * (1 - l_discount) * (1 + l_tax))", "1")
    val projs = for (g <- groups; t <- terms) yield
      s"sum(CASE WHEN l_returnflag = '${g._1}' AND l_linestatus = '${g._2}' AND $datePred THEN $t ELSE 0 END)"
    s"SELECT ${projs.mkString(", ")} FROM S3Object"
  }

  /** `SelectParser.parse` over `sqls`: microseconds per KB of SQL. */
  def parser(sqls: Seq[String], reps: Int = 3): Double = {
    var nanos = 0.0
    for (_ <- 1 to reps; sql <- sqls) nanos += timed("s3.parser.parse") { SelectParser.parse(sql) }._2
    val kb = reps * sqls.map(_.length).sum / 1024.0
    nanos / 1e3 / kb
  }

  /** `SelectEngine.run` on every lineitem object: (ns per row, rows scanned). */
  def engine(shape: String, sql: String): (Double, Long) = {
    val q = SelectParser.parse(sql)
    var nanos = 0.0
    var rows = 0L
    client.objectKeys("lineitem").foreach { k =>
      val obj = store.get(TableCatalog.Bucket, k)
      nanos += timed(s"s3.engine.run.$shape") { SelectEngine.run(obj, q) }._2
      rows += obj.numRows
    }
    (nanos / rows, rows)
  }

  private def firstShard: CsvObject =
    store.get(TableCatalog.Bucket, client.objectKeys("lineitem").head).asInstanceOf[CsvObject]

  /** `CsvCodec.encode` and `CsvCodec.decode` of one lineitem shard: ns per byte. */
  def codec(reps: Int = 3): (Double, Double) = {
    val obj = firstShard
    val rows = obj.rows
    val bytes = obj.bytes
    var enc = 0.0
    var dec = 0.0
    for (_ <- 1 to reps) {
      enc += timed("s3.codec.encode") { CsvCodec.encode(rows) }._2
      dec += timed("s3.codec.decode") { CsvCodec.decode(bytes) }._2
    }
    (enc / (reps.toDouble * bytes.length), dec / (reps.toDouble * bytes.length))
  }

  /** `S3Client.getRange` for the Fig-1 index entries: microseconds per GET. */
  def rangeGets(reps: Int = 10): Double = {
    val entries = Sim.inPhase("probe") {
      client.select("lineitem.idx.l_extendedprice",
        s"SELECT shard, off, len FROM S3Object WHERE val <= ${Workloads.FilterHi}")
    }
    val dataKeys = client.objectKeys("lineitem").toIndexedSeq
    val (_, nanos) = timed("s3.client.getRange") {
      Sim.inPhase("probe") {
        for (_ <- 1 to reps; e <- entries) client.getRange(dataKeys(e(0).toInt), e(1).toLong, e(2).toInt)
      }
    }
    nanos / 1e3 / math.max(1, reps * entries.size)
  }

  /** `RowCodecs.toInternalRow` over one lineitem shard: ns per row. */
  def toInternalRow(reps: Int = 3): Double = {
    val obj = firstShard
    val rows = obj.rows
    var nanos = 0.0
    for (_ <- 1 to reps)
      nanos += timed("datasource.toInternalRow") { rows.foreach(r => RowCodecs.toInternalRow(r, obj.schema)) }._2
    nanos / (reps.toDouble * rows.length)
  }

  /** The DuckDB oracle over the first `rowsPerTable` rows of each table:
    * (load ms, rows loaded, check ms). The load is timed through a trivial
    * query; the check is TPC-H Q6 in Spark SQL against DuckDB on the same rows.
    */
  def oracle(tables: Seq[(String, DataFrame)], rowsPerTable: Int): (Double, Long, Double) = {
    val prefixes = tables.map { case (n, df) => n -> df.limit(rowsPerTable).localCheckpoint() }
    val rows = prefixes.map(_._2.count()).sum
    val (_, loadNs) = timed("oracle.load") {
      Oracle.assertEquivalent(spark.sql("SELECT 1 AS one"), "SELECT 1 AS one", prefixes: _*)
    }
    prefixes.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val q6 = Tpch.q6
    val (_, checkNs) = timed("oracle.check") {
      Oracle.assertEquivalent(
        spark.sql(s"SELECT round(revenue, 2) AS revenue FROM (${q6.sparkSql}) t"),
        s"SELECT ROUND(revenue, 2) AS revenue FROM (${q6.duckSql}) t", prefixes: _*)
    }
    (loadNs / 1e6, rows, checkNs / 1e6)
  }
}
