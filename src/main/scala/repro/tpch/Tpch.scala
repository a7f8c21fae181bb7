package repro.tpch

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core._
import repro.core.Plans._
import repro.s3._

import scala.jdk.CollectionConverters._

/** TPC-H-lite queries of the paper's Figure 10 (Q1, Q3, Q6, Q14, Q17, Q19),
  * each with a *baseline* plan (full-table GETs, all computation in Spark)
  * and an *optimized* plan using the S3 Select techniques of §IV–§VII.
  *
  * Queries are adapted to the SynthData lite schema; AVG columns of Q1 are
  * derivable from the SUM/COUNT columns and omitted (noted in
  * EXPERIMENTS.md). `sparkSql` runs over typed temp views; `duckSql` is the
  * same query with explicit casts for the all-VARCHAR oracle tables.
  *
  * Every join of `sparkSql` is a hash join against a broadcast build side,
  * as the paper's server builds a hash table from the smaller input (§V).
  * The hints name the build side; a hint on a base table does not pass up
  * through a join, so Q3's customer⋈orders join is an aliased subquery
  * `co`, and Q17's correlated per-part limit is a CTE `lim` (its
  * decorrelated join could not be named). `duckSql` keeps the textbook
  * form, so the DuckDB checks prove each rewrite equivalent.
  */
object Tpch {

  final case class QueryDef(name: String, tables: Seq[String], sparkSql: String, duckSql: String)

  val Q1Date  = "1998-09-02"
  val Q3Date  = "1995-03-15"
  val Q3Seg   = "BUILDING"

  val q1: QueryDef = QueryDef("Q1", Seq("lineitem"),
    s"""SELECT l_returnflag, l_linestatus,
       |  sum(l_quantity) AS sum_qty,
       |  sum(l_extendedprice) AS sum_base_price,
       |  sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       |  sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       |  count(*) AS count_order
       |FROM lineitem WHERE l_shipdate <= DATE '$Q1Date'
       |GROUP BY l_returnflag, l_linestatus""".stripMargin,
    s"""SELECT l_returnflag, l_linestatus,
       |  sum(CAST(l_quantity AS DOUBLE)) AS sum_qty,
       |  sum(CAST(l_extendedprice AS DOUBLE)) AS sum_base_price,
       |  sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))) AS sum_disc_price,
       |  sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE)) * (1 + CAST(l_tax AS DOUBLE))) AS sum_charge,
       |  count(*) AS count_order
       |FROM lineitem WHERE l_shipdate <= '$Q1Date'
       |GROUP BY l_returnflag, l_linestatus""".stripMargin)

  val q3: QueryDef = QueryDef("Q3", Seq("customer", "orders", "lineitem"),
    s"""SELECT /*+ BROADCAST(co) */ l_orderkey,
       |  sum(l_extendedprice * (1 - l_discount)) AS revenue,
       |  o_orderdate, o_shippriority
       |FROM (SELECT /*+ BROADCAST(customer) */ o_orderkey, o_orderdate, o_shippriority
       |      FROM customer, orders
       |      WHERE c_mktsegment = '$Q3Seg' AND c_custkey = o_custkey
       |        AND o_orderdate < DATE '$Q3Date') co,
       |  lineitem
       |WHERE l_orderkey = o_orderkey AND l_shipdate > DATE '$Q3Date'
       |GROUP BY l_orderkey, o_orderdate, o_shippriority
       |ORDER BY revenue DESC, l_orderkey LIMIT 10""".stripMargin,
    s"""SELECT l_orderkey,
       |  sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))) AS revenue,
       |  o_orderdate, o_shippriority
       |FROM customer, orders, lineitem
       |WHERE c_mktsegment = '$Q3Seg' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
       |  AND o_orderdate < '$Q3Date' AND l_shipdate > '$Q3Date'
       |GROUP BY l_orderkey, o_orderdate, o_shippriority
       |ORDER BY revenue DESC, CAST(l_orderkey AS BIGINT) LIMIT 10""".stripMargin)

  val q6: QueryDef = QueryDef("Q6", Seq("lineitem"),
    """SELECT sum(l_extendedprice * l_discount) AS revenue
      |FROM lineitem
      |WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
      |  AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24""".stripMargin,
    """SELECT sum(CAST(l_extendedprice AS DOUBLE) * CAST(l_discount AS DOUBLE)) AS revenue
      |FROM lineitem
      |WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
      |  AND CAST(l_discount AS DOUBLE) >= 0.05 AND CAST(l_discount AS DOUBLE) <= 0.07
      |  AND CAST(l_quantity AS DOUBLE) < 24""".stripMargin)

  val q14: QueryDef = QueryDef("Q14", Seq("lineitem", "part"),
    """SELECT /*+ BROADCAST(part) */ 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
      |    THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
      |  / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
      |FROM lineitem, part
      |WHERE l_partkey = p_partkey
      |  AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'""".stripMargin,
    """SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
      |    THEN CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE)) ELSE 0 END)
      |  / sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))) AS promo_revenue
      |FROM lineitem, part
      |WHERE l_partkey = p_partkey
      |  AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'""".stripMargin)

  val q17: QueryDef = QueryDef("Q17", Seq("lineitem", "part"),
    """WITH lim AS (
      |  SELECT l_partkey AS lim_partkey, 0.2 * avg(l_quantity) AS qty_limit
      |  FROM lineitem GROUP BY l_partkey)
      |SELECT /*+ BROADCAST(part, lim) */ sum(l_extendedprice) / 7.0 AS avg_yearly
      |FROM lineitem, part, lim
      |WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
      |  AND lim_partkey = p_partkey AND l_quantity < qty_limit""".stripMargin,
    """SELECT sum(CAST(l_extendedprice AS DOUBLE)) / 7.0 AS avg_yearly
      |FROM lineitem, part
      |WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
      |  AND CAST(l_quantity AS DOUBLE) < (SELECT 0.2 * avg(CAST(l2.l_quantity AS DOUBLE))
      |                    FROM lineitem l2 WHERE l2.l_partkey = p_partkey)""".stripMargin)

  val q19: QueryDef = QueryDef("Q19", Seq("lineitem", "part"),
    """SELECT /*+ BROADCAST(part) */ sum(l_extendedprice * (1 - l_discount)) AS revenue
      |FROM lineitem, part
      |WHERE p_partkey = l_partkey
      |  AND l_shipinstruct = 'DELIVER IN PERSON' AND l_shipmode IN ('AIR', 'REG AIR')
      |  AND ((p_brand = 'Brand#12' AND p_container IN ('SM BOX', 'SM PKG')
      |        AND l_quantity >= 1 AND l_quantity <= 11 AND p_size >= 1 AND p_size <= 5)
      |    OR (p_brand = 'Brand#23' AND p_container IN ('MED BOX', 'MED PKG')
      |        AND l_quantity >= 10 AND l_quantity <= 20 AND p_size >= 1 AND p_size <= 10)
      |    OR (p_brand = 'Brand#34' AND p_container IN ('LG BOX', 'LG PKG')
      |        AND l_quantity >= 20 AND l_quantity <= 30 AND p_size >= 1 AND p_size <= 15))""".stripMargin,
    """SELECT sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))) AS revenue
      |FROM lineitem, part
      |WHERE p_partkey = l_partkey
      |  AND l_shipinstruct = 'DELIVER IN PERSON' AND l_shipmode IN ('AIR', 'REG AIR')
      |  AND ((p_brand = 'Brand#12' AND p_container IN ('SM BOX', 'SM PKG')
      |        AND CAST(l_quantity AS DOUBLE) >= 1 AND CAST(l_quantity AS DOUBLE) <= 11
      |        AND CAST(p_size AS INT) >= 1 AND CAST(p_size AS INT) <= 5)
      |    OR (p_brand = 'Brand#23' AND p_container IN ('MED BOX', 'MED PKG')
      |        AND CAST(l_quantity AS DOUBLE) >= 10 AND CAST(l_quantity AS DOUBLE) <= 20
      |        AND CAST(p_size AS INT) >= 1 AND CAST(p_size AS INT) <= 10)
      |    OR (p_brand = 'Brand#34' AND p_container IN ('LG BOX', 'LG PKG')
      |        AND CAST(l_quantity AS DOUBLE) >= 20 AND CAST(l_quantity AS DOUBLE) <= 30
      |        AND CAST(p_size AS INT) >= 1 AND CAST(p_size AS INT) <= 15))""".stripMargin)

  val queries: Seq[QueryDef] = Seq(q1, q3, q6, q14, q17, q19)

  def byName(name: String): QueryDef = queries.find(_.name == name).get

  // -------------------------------------------------------------- baseline
  /** Baseline PushdownDB: every referenced table is transferred in full (no
    * S3 Select) and the whole query runs in Spark, over temp views of the
    * loaded tables that exist only while it runs.
    */
  def baseline(spark: SparkSession, q: QueryDef, scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val loads = q.tables.map { t =>
      Sim.inPhase(s"load:$t") { force(read(spark, t, pushdown = false)) }
    }
    q.tables.zip(loads).foreach { case (t, f) => f.df.createOrReplaceTempView(t) }
    val df = Sim.inPhase("local") {
      Sim.currentPhase.localWork(q.tables.map(client.tableRows).sum, Model.RowHash)
      toDriver(spark.sql(q.sparkSql)).df
    }
    q.tables.foreach(spark.catalog.dropTempView)
    release(loads: _*)
    finish(df, Seq(q.tables.map(t => s"load:$t"), Seq("local")), scale)
  }

  // -------------------------------------------------------------- optimized
  def optimized(spark: SparkSession, name: String, scale: Double): PlanResult = name match {
    case "Q1"  => optimizedQ1(spark, scale)
    case "Q3"  => optimizedQ3(spark, scale)
    case "Q6"  => optimizedQ6(spark, scale)
    case "Q14" => optimizedQ14(spark, scale)
    case "Q17" => optimizedQ17(spark, scale)
    case "Q19" => optimizedQ19(spark, scale)
  }

  /** The five aggregates of Q1, each summed per group by a CASE term. */
  val Q1Terms: Seq[String] = Seq(
    "l_quantity",
    "l_extendedprice",
    "(l_extendedprice * (1 - l_discount))",
    "(l_extendedprice * (1 - l_discount) * (1 + l_tax))",
    "1")

  /** Optimized Q1's phase-2 S3 Select query: one `SUM(CASE …)` per
    * (returnflag, linestatus) group and term of [[Q1Terms]].
    */
  def q1CaseSql(groups: Seq[(String, String)]): String = {
    val projs = for (g <- groups; t <- Q1Terms) yield
      s"sum(CASE WHEN l_returnflag = '${g._1}' AND l_linestatus = '${g._2}' AND l_shipdate <= '$Q1Date' THEN $t ELSE 0 END)"
    s"SELECT ${projs.mkString(", ")} FROM S3Object"
  }

  /** Q1 optimized: S3-side group-by (§VI-A) — phase 1 finds the distinct
    * (returnflag, linestatus) pairs, phase 2 ships 6 groups × 5 aggregates
    * as CASE-encoded sums.
    */
  private def optimizedQ1(spark: SparkSession, scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val datePred = s"l_shipdate <= '$Q1Date'"

    val groups = Sim.inPhase("groups") {
      val vs = client.select("lineitem",
        s"SELECT l_returnflag, l_linestatus FROM S3Object WHERE $datePred")
      Sim.currentPhase.localWork(vs.size.toLong, Model.RowLight)
      vs.map(r => (r(0), r(1))).distinct.sorted
    }

    val sums = Sim.inPhase("caseagg") {
      GroupByOps.sumPartials(client.select("lineitem", q1CaseSql(groups)))
    }
    val schema = StructType(Seq(
      StructField("l_returnflag", StringType), StructField("l_linestatus", StringType),
      StructField("sum_qty", DoubleType), StructField("sum_base_price", DoubleType),
      StructField("sum_disc_price", DoubleType), StructField("sum_charge", DoubleType),
      StructField("count_order", LongType)))
    val rows = groups.zipWithIndex.map { case ((rf, ls), gi) =>
      val base = gi * Q1Terms.size
      Row(rf, ls, sums(base), sums(base + 1), sums(base + 2), sums(base + 3), sums(base + 4).toLong)
    }
    val df = spark.createDataFrame(rows.asJava, schema)
    finish(df, Seq(Seq("groups"), Seq("caseagg")), scale)
  }

  /** Q3 optimized: two chained Bloom joins (§V) — customer keys filter the
    * orders scan; surviving order keys filter the lineitem scan.
    */
  private def optimizedQ3(spark: SparkSession, scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()

    val custKeys = Sim.inPhase("cust") {
      val ks = client.select("customer",
        s"SELECT c_custkey FROM S3Object WHERE c_mktsegment = '$Q3Seg'").map(_(0).toLong)
      Sim.currentPhase.localWork(ks.size.toLong, Model.RowLight)
      ks
    }
    val bloom1 = JoinOps.bloomProbe(custKeys, 0.01, "o_custkey")

    val orders = Sim.inPhase("orders") {
      toDriver(read(spark, "orders", pushdown = true, extraWhere = bloom1.extraWhere)
        .where(col("o_orderdate") < lit(Q3Date).cast("date"))
        .select("o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"))
    }
    val orderKeys = orders.df.select("o_orderkey").collect().map(_.getLong(0))
    Sim.phase("orders").localWork(orderKeys.length.toLong, Model.RowLight)
    val bloom2 = JoinOps.bloomProbe(orderKeys, 0.01, "l_orderkey")

    val lines = Sim.inPhase("lineitem") {
      force(read(spark, "lineitem", pushdown = true, extraWhere = bloom2.extraWhere)
        .where(col("l_shipdate") > lit(Q3Date).cast("date"))
        .select("l_orderkey", "l_extendedprice", "l_discount"))
    }

    val df = Sim.inPhase("local") {
      Sim.currentPhase.localWork(custKeys.length + orders.rows + lines.rows, Model.RowHash)
      val cust = TableCatalog.toDataFrame(spark,
        custKeys.map(k => Array(k.toString)),
        StructType(Seq(StructField("c_custkey", LongType))))
      val (l, o) = (lines.df, orders.df)
      toDriver(
        l.join(broadcast(o), l("l_orderkey") === o("o_orderkey"))
          .join(broadcast(cust), o("o_custkey") === cust("c_custkey"))
          .groupBy("l_orderkey", "o_orderdate", "o_shippriority")
          .agg(sum(col("l_extendedprice") * (lit(1) - col("l_discount"))).as("revenue"))
          .select("l_orderkey", "revenue", "o_orderdate", "o_shippriority")
          .orderBy(desc("revenue"), asc("l_orderkey")).limit(10)).df
    }
    release(lines)
    finish(df, Seq(Seq("cust"), Seq("orders"), Seq("lineitem"), Seq("local")), scale,
      bloom1.info.map { case (k, v) => s"orders.$k" -> v } ++
        bloom2.info.map { case (k, v) => s"lineitem.$k" -> v })
  }

  /** Q6 optimized: filters *and* the whole aggregation pushed through the
    * Catalyst DataSourceV2 path (`SupportsPushDownAggregates`).
    */
  private def optimizedQ6(spark: SparkSession, scale: Double): PlanResult = {
    Sim.reset()
    val df = Sim.inPhase("agg") {
      toDriver(
        read(spark, "lineitem", pushdown = true)
          .where(col("l_shipdate") >= lit("1994-01-01").cast("date") &&
                 col("l_shipdate") < lit("1995-01-01").cast("date") &&
                 col("l_discount") >= 0.05 && col("l_discount") <= 0.07 &&
                 col("l_quantity") < 24)
          .agg(sum(col("l_extendedprice") * col("l_discount")).as("revenue"))).df
    }
    finish(df, Seq(Seq("agg")), scale)
  }

  /** Q14 optimized: date filter + projection pushed on lineitem; the small
    * result's part keys Bloom-filter the part scan.
    */
  private def optimizedQ14(spark: SparkSession, scale: Double): PlanResult = {
    Sim.reset()
    val lines = Sim.inPhase("lineitem") {
      toDriver(read(spark, "lineitem", pushdown = true)
        .where(col("l_shipdate") >= lit("1995-09-01").cast("date") &&
               col("l_shipdate") < lit("1995-10-01").cast("date"))
        .select("l_partkey", "l_extendedprice", "l_discount"))
    }
    val partKeys = lines.df.select("l_partkey").collect().map(_.getLong(0)).distinct
    Sim.phase("lineitem").localWork(lines.rows, Model.RowLight)
    val bloom = JoinOps.bloomProbe(partKeys, 0.01, "p_partkey")

    val parts = Sim.inPhase("part") {
      force(read(spark, "part", pushdown = true, extraWhere = bloom.extraWhere)
        .select("p_partkey", "p_type"))
    }
    val df = Sim.inPhase("local") {
      Sim.currentPhase.localWork(lines.rows + parts.rows, Model.RowHash)
      val (l, p) = (lines.df, parts.df)
      val disc = col("l_extendedprice") * (lit(1) - col("l_discount"))
      toDriver(
        l.join(broadcast(p), l("l_partkey") === p("p_partkey"))
          .agg((lit(100.0) *
            sum(when(col("p_type").startsWith("PROMO"), disc).otherwise(0.0)) / sum(disc))
            .as("promo_revenue"))).df
    }
    release(parts)
    finish(df, Seq(Seq("lineitem"), Seq("part"), Seq("local")), scale, bloom.info)
  }

  /** Q17 optimized: highly selective part filter pushed; surviving part keys
    * Bloom-filter the lineitem scan; correlated avg computed locally over
    * the (complete) per-part row groups that the Bloom filter admits.
    */
  private def optimizedQ17(spark: SparkSession, scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val partKeys = Sim.inPhase("part") {
      val ks = client.select("part",
        "SELECT p_partkey FROM S3Object WHERE p_brand = 'Brand#23' AND p_container = 'MED BOX'")
        .map(_(0).toLong)
      Sim.currentPhase.localWork(ks.size.toLong, Model.RowLight)
      ks
    }
    val bloom = JoinOps.bloomProbe(partKeys, 0.01, "l_partkey")

    val lines = Sim.inPhase("lineitem") {
      force(read(spark, "lineitem", pushdown = true, extraWhere = bloom.extraWhere)
        .select("l_partkey", "l_quantity", "l_extendedprice"))
    }
    val df = Sim.inPhase("local") {
      Sim.currentPhase.localWork(lines.rows + partKeys.length, Model.RowHash)
      val l = lines.df
      val parts = TableCatalog.toDataFrame(spark,
        partKeys.map(k => Array(k.toString)),
        StructType(Seq(StructField("p_partkey", LongType))))
      val avgQ = l.groupBy(col("l_partkey").as("a_partkey"))
        .agg((avg("l_quantity") * 0.2).as("qty_limit"))
      toDriver(
        l.join(broadcast(parts), l("l_partkey") === parts("p_partkey"))
          .join(broadcast(avgQ), l("l_partkey") === avgQ("a_partkey"))
          .where(col("l_quantity") < col("qty_limit"))
          .agg((sum("l_extendedprice") / 7.0).as("avg_yearly"))).df
    }
    release(lines)
    finish(df, Seq(Seq("part"), Seq("lineitem"), Seq("local")), scale, bloom.info)
  }

  /** Q19 optimized: the OR-of-ANDs part predicate and the lineitem
    * shipmode/shipinstruct/quantity envelope are pushed; part keys
    * Bloom-filter the lineitem scan; the exact pairing predicate is
    * re-applied locally.
    */
  private def optimizedQ19(spark: SparkSession, scale: Double): PlanResult = {
    Sim.reset()
    val partPred =
      (col("p_brand") === "Brand#12" && col("p_container").isin("SM BOX", "SM PKG") &&
        col("p_size") >= 1 && col("p_size") <= 5) ||
      (col("p_brand") === "Brand#23" && col("p_container").isin("MED BOX", "MED PKG") &&
        col("p_size") >= 1 && col("p_size") <= 10) ||
      (col("p_brand") === "Brand#34" && col("p_container").isin("LG BOX", "LG PKG") &&
        col("p_size") >= 1 && col("p_size") <= 15)

    val parts = Sim.inPhase("part") {
      toDriver(read(spark, "part", pushdown = true).where(partPred)
        .select("p_partkey", "p_brand", "p_container", "p_size"))
    }
    val partKeys = parts.df.select("p_partkey").collect().map(_.getLong(0))
    Sim.phase("part").localWork(partKeys.length.toLong, Model.RowLight)
    val bloom = JoinOps.bloomProbe(partKeys, 0.01, "l_partkey")

    val lines = Sim.inPhase("lineitem") {
      force(read(spark, "lineitem", pushdown = true, extraWhere = bloom.extraWhere)
        .where(col("l_shipinstruct") === "DELIVER IN PERSON" &&
               col("l_shipmode").isin("AIR", "REG AIR") &&
               col("l_quantity") >= 1 && col("l_quantity") <= 30)
        .select("l_partkey", "l_quantity", "l_extendedprice", "l_discount"))
    }
    val df = Sim.inPhase("local") {
      Sim.currentPhase.localWork(lines.rows + parts.rows, Model.RowHash)
      val (l, p) = (lines.df, parts.df)
      val pairPred =
        (col("p_brand") === "Brand#12" && col("p_container").isin("SM BOX", "SM PKG") &&
          col("l_quantity") >= 1 && col("l_quantity") <= 11 && col("p_size") <= 5) ||
        (col("p_brand") === "Brand#23" && col("p_container").isin("MED BOX", "MED PKG") &&
          col("l_quantity") >= 10 && col("l_quantity") <= 20 && col("p_size") <= 10) ||
        (col("p_brand") === "Brand#34" && col("p_container").isin("LG BOX", "LG PKG") &&
          col("l_quantity") >= 20 && col("l_quantity") <= 30 && col("p_size") <= 15)
      toDriver(
        l.join(broadcast(p), l("l_partkey") === p("p_partkey"))
          .where(pairPred)
          .agg(sum(col("l_extendedprice") * (lit(1) - col("l_discount"))).as("revenue"))).df
    }
    release(lines)
    finish(df, Seq(Seq("part"), Seq("lineitem"), Seq("local")), scale, bloom.info)
  }
}
