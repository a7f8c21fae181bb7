package repro.tpch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.util.QueryExecutionListener
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.TableCatalog

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}

/** Every TPC-H query of Figure 10, baseline and optimized, checked against
  * DuckDB at SF 0.01; plus plan-shape expectations (what moved, what was
  * pushed).
  */
class TpchSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private def ensure(): Unit = TableCatalog.ensureTpch(spark, 0.01)
  private def tables = Seq(
    "lineitem" -> SynthData.lineitem(spark, 0.01),
    "orders"   -> SynthData.orders(spark, 0.01),
    "customer" -> SynthData.customer(spark, 0.01),
    "part"     -> SynthData.part(spark, 0.01))

  /** Round double columns on both sides so FP summation order is immaterial. */
  private def checkBoth(q: Tpch.QueryDef,
                        norm: DataFrame => DataFrame,
                        duckSql: String): Unit = {
    ensure()
    val base = Tpch.baseline(spark, q, 100)
    val opt  = Tpch.optimized(spark, q.name, 100)
    Oracle.assertEquivalent(norm(base.df), duckSql, tables: _*)
    Oracle.assertEquivalent(norm(opt.df), duckSql, tables: _*)
    assert(opt.runtimeSeconds < base.runtimeSeconds, s"${q.name}: optimized not faster")
  }

  private def round2(name: String)(df: DataFrame): DataFrame =
    df.select(round(col(name), 2).as(name))

  test("Q1: s3-side group-by equals baseline equals DuckDB") {
    val norm = (df: DataFrame) => df.select(
      col("l_returnflag"), col("l_linestatus"),
      round(col("sum_qty"), 2).as("sum_qty"),
      round(col("sum_base_price"), 1).as("sum_base_price"),
      round(col("sum_disc_price"), 1).as("sum_disc_price"),
      round(col("sum_charge"), 1).as("sum_charge"),
      col("count_order"))
    val duck =
      s"""SELECT l_returnflag, l_linestatus,
         |  ROUND(sum(CAST(l_quantity AS DOUBLE)), 2) AS sum_qty,
         |  ROUND(sum(CAST(l_extendedprice AS DOUBLE)), 1) AS sum_base_price,
         |  ROUND(sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))), 1) AS sum_disc_price,
         |  ROUND(sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE)) * (1 + CAST(l_tax AS DOUBLE))), 1) AS sum_charge,
         |  count(*) AS count_order
         |FROM lineitem WHERE l_shipdate <= '${Tpch.Q1Date}'
         |GROUP BY l_returnflag, l_linestatus""".stripMargin
    checkBoth(Tpch.q1, norm, duck)
  }

  test("Q3: double bloom join equals baseline equals DuckDB") {
    val norm = (df: DataFrame) => df.select(
      col("l_orderkey"), round(col("revenue"), 2).as("revenue"),
      col("o_orderdate"), col("o_shippriority"))
    val duck =
      s"""SELECT l_orderkey,
         |  ROUND(sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))), 2) AS revenue,
         |  o_orderdate, o_shippriority
         |FROM customer, orders, lineitem
         |WHERE c_mktsegment = '${Tpch.Q3Seg}' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
         |  AND o_orderdate < '${Tpch.Q3Date}' AND l_shipdate > '${Tpch.Q3Date}'
         |GROUP BY l_orderkey, o_orderdate, o_shippriority
         |ORDER BY revenue DESC, CAST(l_orderkey AS BIGINT) LIMIT 10""".stripMargin
    checkBoth(Tpch.q3, norm, duck)
  }

  test("Q6: pushed-down aggregation equals baseline equals DuckDB") {
    val duck =
      """SELECT ROUND(sum(CAST(l_extendedprice AS DOUBLE) * CAST(l_discount AS DOUBLE)), 2) AS revenue
        |FROM lineitem
        |WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
        |  AND CAST(l_discount AS DOUBLE) >= 0.05 AND CAST(l_discount AS DOUBLE) <= 0.07
        |  AND CAST(l_quantity AS DOUBLE) < 24""".stripMargin
    checkBoth(Tpch.q6, round2("revenue"), duck)
  }

  test("Q6 optimized moves almost no data (aggregation pushed)") {
    ensure()
    val opt = Tpch.optimized(spark, "Q6", 100)
    assert(opt.bytesReturned < 2000, s"returned ${opt.bytesReturned}")
  }

  test("Q14: bloom join on part equals baseline equals DuckDB") {
    val duck =
      """SELECT ROUND(100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
        |    THEN CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE)) ELSE 0 END)
        |  / sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))), 3) AS promo_revenue
        |FROM lineitem, part
        |WHERE l_partkey = p_partkey
        |  AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'""".stripMargin
    checkBoth(Tpch.q14, df => df.select(round(col("promo_revenue"), 3).as("promo_revenue")), duck)
  }

  test("Q17: correlated avg with bloom-filtered lineitem equals DuckDB") {
    val duck =
      """SELECT ROUND(sum(CAST(l_extendedprice AS DOUBLE)) / 7.0, 2) AS avg_yearly
        |FROM lineitem, part
        |WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
        |  AND CAST(l_quantity AS DOUBLE) < (SELECT 0.2 * avg(CAST(l2.l_quantity AS DOUBLE))
        |                    FROM lineitem l2 WHERE l2.l_partkey = p_partkey)""".stripMargin
    checkBoth(Tpch.q17, round2("avg_yearly"), duck)
  }

  test("Q19: disjunctive predicates with bloom join equal DuckDB") {
    val duck =
      """SELECT ROUND(sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))), 2) AS revenue
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
        |        AND CAST(p_size AS INT) >= 1 AND CAST(p_size AS INT) <= 15))""".stripMargin
    checkBoth(Tpch.q19, round2("revenue"), duck)
  }

  /** The executed plan of the one `collect` that `body` runs: with adaptive
    * execution, the final plan. Listener events arrive asynchronously.
    */
  private def collectedPlan(body: => Unit): SparkPlan = {
    val plans = new LinkedBlockingQueue[SparkPlan]()
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        if (funcName == "collect") plans.add(qe.executedPlan)
      override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      body
      Option(plans.poll(30, TimeUnit.SECONDS)).getOrElse(fail("no collect seen"))
    } finally spark.listenerManager.unregister(listener)
  }

  test("baseline joins are broadcast hash joins, never sort-merge joins") {
    ensure()
    Seq(Tpch.q3 -> 2, Tpch.q14 -> 1, Tpch.q17 -> 2, Tpch.q19 -> 1).foreach { case (q, joins) =>
      val plan = collectedPlan(Tpch.baseline(spark, q, 100))
      val hashJoins = collectWithSubqueries(plan) { case j: BroadcastHashJoinExec => j }
      val sortMerge = collectWithSubqueries(plan) { case j: SortMergeJoinExec => j }
      assert(hashJoins.size == joins && sortMerge.isEmpty, s"${q.name}:\n$plan")
    }
  }

  test("baseline transfers every referenced table in full") {
    ensure()
    val base = Tpch.baseline(spark, Tpch.q3, 100)
    val client = new repro.s3.S3Client()
    val expected = Seq("customer", "orders", "lineitem").map(client.tableBytes).sum
    assert(base.bytesReturned == expected)
    assert(base.bytesScanned == 0)
  }

  test("optimized Q3 moves far less data than baseline") {
    ensure()
    val base = Tpch.baseline(spark, Tpch.q3, 100)
    val opt  = Tpch.optimized(spark, "Q3", 100)
    assert(opt.bytesReturned * 3 < base.bytesReturned,
      s"opt ${opt.bytesReturned} vs base ${base.bytesReturned}")
  }

  test("optimized Q3 and Q14 record the FPR of each Bloom filter") {
    ensure()
    val q3 = Tpch.optimized(spark, "Q3", 100).info
    assert(q3("orders.fpr") == "0.01" && q3("lineitem.fpr") == "0.01", q3)
    assert(q3.keySet == Set("orders", "lineitem")
      .flatMap(p => Seq("fpr", "bloomBits", "bloomHashes").map(k => s"$p.$k")))
    val q14 = Tpch.optimized(spark, "Q14", 100).info
    assert(q14("fpr") == "0.01" && q14.contains("bloomBits"), q14)
  }

  test("Q1 with more shards than rows: empty objects add nothing to the sums") {
    try {
      // 5 rows in 8 shards: 3 objects are empty and return NULL sums
      TableCatalog.register(SynthData.lineitem(spark, 0.01).limit(5), "lineitem", numShards = 8)
      val norm = (df: DataFrame) => df.select(
        col("l_returnflag"), col("l_linestatus"), round(col("sum_qty"), 2).as("sum_qty"),
        round(col("sum_charge"), 2).as("sum_charge"), col("count_order"))
        .orderBy("l_returnflag", "l_linestatus").collect().toSeq
      val opt = Tpch.optimized(spark, "Q1", 100)
      assert(opt.phases.find(_.name == "caseagg").get.selectRequests == 8)
      val rows = norm(opt.df)
      assert(rows.nonEmpty && rows.map(_.getLong(4)).sum <= 5)
      assert(rows == norm(Tpch.baseline(spark, Tpch.q1, 100).df))
    } finally TableCatalog.resetTpch() // the next ensure() re-registers the shared tables
  }

  test("optimized Q1 returns only per-object partial aggregates in phase 2") {
    ensure()
    val opt = Tpch.optimized(spark, "Q1", 100)
    val caseagg = opt.phases.find(_.name == "caseagg").get
    assert(caseagg.returnedBytes < 10000)
    assert(caseagg.exprFactor > 1.5, "CASE cost must be modeled")
  }
}
