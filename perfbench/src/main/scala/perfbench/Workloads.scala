package perfbench

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._
import repro.s3._
import repro.tpch.Tpch

/** What one operation returned: the plan's result and its collected rows. */
final case class Outcome(result: PlanResult, rows: Array[Row])

/** One benchmarked operation.
  *
  * @param name    the plan's name, used for `plan.<name>.ms_p50`
  * @param pair    the Fig-10 row (or Fig-11 twin) whose other column must
  *                return the same answer
  * @param fig10   whether the plan is one of the ten Fig-10 plans that the
  *                `modeled_*` geo-means cover
  * @param columns result columns compared, each with the decimal places it
  *                is rounded to (None = compared exactly)
  * @param exec    runs the plan and collects its result; this is the timed part
  */
final case class Op(name: String, pair: String, fig10: Boolean,
                    columns: Seq[(String, Option[Int])], exec: () => Outcome) {

  /** The result as sorted canonical rows, rounded the way TpchSpec rounds. */
  def canonical(rows: Array[Row]): Vector[String] =
    rows.iterator.map { r =>
      columns.zipWithIndex.map { case ((c, digits), pos) =>
        val i = if (r.schema == null) pos else r.fieldIndex(c)
        (r.get(i), digits) match {
          case (null, _)              => "null"
          case (d: Double, Some(n))   => BigDecimal(d).setScale(n, BigDecimal.RoundingMode.HALF_UP).toString
          case (d: Double, None)      => java.lang.Double.toString(d)
          case (x, _)                 => x.toString
        }
      }.mkString("|")
    }.toVector.sorted
}

/** The data of one workload: TPC-H-lite tables at `sf`, generated from the
  * workload seed. Every table gets its own seed range so tables do not share
  * random streams.
  */
final case class DataSpec(sf: Double, shards: Int, seed: Long) {
  def lineitemSeed: Long = seed * 100
  def ordersSeed: Long   = seed * 100 + 20
  def customerSeed: Long = seed * 100 + 40
  def partSeed: Long     = seed * 100 + 60
  def floatSeed: Long    = seed * 100 + 80

  def tables(spark: SparkSession) = Seq(
    "lineitem" -> SynthData.lineitem(spark, sf, lineitemSeed),
    "orders"   -> SynthData.orders(spark, sf, ordersSeed),
    "customer" -> SynthData.customer(spark, sf, customerSeed),
    "part"     -> SynthData.part(spark, sf, partSeed))
}

object Workloads {

  val Names: Seq[String] = Seq("server", "pushdown")

  /** Fig-10 parameters, as `Figures.fig10` sets them. */
  val TopK = 100
  val FilterHi: Double = 900 + 1e-3 * 90000
  val JoinParams: JoinOps.Params = JoinOps.Params(-950, None)

  /** Fig-11 float table: 20 columns, scanned as CSV and as Parquet-lite. */
  val FloatTable = "floats20"
  val FloatCols = 20
  val FloatRows = 20000L
  val FloatSql = "SELECT c0 FROM S3Object WHERE c0 <= 0.5"

  /** Both workloads use the data of the Fig-10 tests: SF 0.01 in 8 shards. */
  def data(seed: Long): DataSpec = DataSpec(0.01, TableCatalog.DefaultShards, seed)

  /** Per-query result columns and the rounding TpchSpec applies to them. */
  val tpchColumns: Map[String, Seq[(String, Option[Int])]] = Map(
    "Q1" -> Seq("l_returnflag" -> None, "l_linestatus" -> None, "sum_qty" -> Some(2),
      "sum_base_price" -> Some(1), "sum_disc_price" -> Some(1), "sum_charge" -> Some(1),
      "count_order" -> None),
    "Q3" -> Seq("l_orderkey" -> None, "revenue" -> Some(2), "o_orderdate" -> None,
      "o_shippriority" -> None),
    "Q6" -> Seq("revenue" -> Some(2)),
    "Q14" -> Seq("promo_revenue" -> Some(3)),
    "Q17" -> Seq("avg_yearly" -> Some(2)),
    "Q19" -> Seq("revenue" -> Some(2)))

  private val lineitemColumns: Seq[(String, Option[Int])] = Seq(
    "l_orderkey", "l_partkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount",
    "l_tax", "l_returnflag", "l_linestatus", "l_shipdate", "l_shipmode", "l_shipinstruct"
  ).map(_ -> None)

  private def plan(run: => PlanResult): () => Outcome = () => {
    val r = run
    Outcome(r, r.df.collect())
  }

  def scale(sf: Double): Double = 10.0 / sf

  /** The Fig-10 baseline column: whole-object GETs, all work in Spark. */
  def server(spark: SparkSession, sf: Double): Seq[Op] = {
    val s = scale(sf)
    Seq(
      Op("Filter", "Filter", fig10 = true, lineitemColumns, plan(
        FilterOps.serverSide(spark, "lineitem", col("l_extendedprice") <= FilterHi, s))),
      Op("Join", "Join", fig10 = true, Seq("total" -> Some(2)), plan(
        JoinOps.baseline(spark, JoinParams, s))),
      Op("Group-by", "Group-by", fig10 = true, Seq("c_nationkey" -> None, "sum_c_acctbal" -> Some(2)),
        plan(GroupByOps.serverSide(spark, "customer", "c_nationkey", Seq("c_acctbal"), s))),
      Op("Top-K", "Top-K", fig10 = true, Seq("l_extendedprice" -> None), plan(
        TopKOps.serverSide(spark, "lineitem", "l_extendedprice", TopK, s))),
    ) ++ Tpch.queries.map(q =>
      Op(q.name, q.name, fig10 = true, tpchColumns(q.name), plan(Tpch.baseline(spark, q, s))))
  }

  /** The Fig-10 optimized column, plus Fig 1's indexed filter and the Fig-11
    * CSV and Parquet-lite scans.
    */
  def pushdown(spark: SparkSession, sf: Double): Seq[Op] = {
    val s = scale(sf)
    val client = new S3Client()
    val sOpt = TopKOps.optimalSampleSize(TopK, client.tableRows("lineitem"), 0.1)
    Seq(
      Op("Filter", "Filter", fig10 = true, lineitemColumns, plan(
        FilterOps.s3Side(spark, "lineitem", col("l_extendedprice") <= FilterHi, s))),
      Op("Join", "Join", fig10 = true, Seq("total" -> Some(2)), plan(
        JoinOps.bloom(spark, JoinParams, s))),
      Op("Group-by", "Group-by", fig10 = true, Seq("c_nationkey" -> None, "sum_c_acctbal" -> Some(2)),
        plan(GroupByOps.s3Side(spark, "customer", "c_nationkey", Seq("c_acctbal"), s))),
      Op("Top-K", "Top-K", fig10 = true, Seq("l_extendedprice" -> None), plan(
        TopKOps.sampling(spark, "lineitem", "l_extendedprice", TopK, sOpt, s))),
    ) ++ Tpch.queries.map(q =>
      Op(q.name, q.name, fig10 = true, tpchColumns(q.name), plan(Tpch.optimized(spark, q.name, s)))
    ) ++ Seq(
      Op("Filter-indexed", "Filter", fig10 = false, lineitemColumns, plan(
        FilterOps.indexed(spark, "lineitem", "l_extendedprice", s"val <= $FilterHi", s))),
      Op("Fig11-csv", "Fig11-parquet", fig10 = false, Seq("rows" -> None),
        () => floatScan(spark, FloatTable)),
      Op("Fig11-parquet", "Fig11-csv", fig10 = false, Seq("rows" -> None),
        () => floatScan(spark, FloatTable + ".parquet")),
    )
  }

  /** One Fig-11 filter scan through the S3 client; the result is its row count. */
  private def floatScan(spark: SparkSession, table: String): Outcome = {
    val client = new S3Client()
    Sim.reset()
    val rows = Sim.inPhase("scan") { client.select(table, FloatSql) }
    val phases = Sim.snapshot()
    val scale = FloatCols * 100e6 / client.tableBytes(FloatTable)
    val runtime = RuntimeModel.phaseSeconds(Sim.get("scan"), scale)
    val result = PlanResult(spark.emptyDataFrame, phases, runtime,
      RuntimeModel.cost(phases, runtime, scale), Map("rows" -> rows.size.toString))
    Outcome(result, Array(Row(rows.size.toLong)))
  }
}
