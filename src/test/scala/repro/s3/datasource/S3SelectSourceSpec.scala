package repro.s3.datasource

import org.apache.spark.sql.Column
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{Plans, TableCatalog}
import repro.s3._

/** Catalyst integration: what gets pushed through the `s3select` DataSource
  * and what the storage layer consequently scans/returns.
  */
class S3SelectSourceSpec extends SparkSpec {

  private def ensure(): Unit = TableCatalog.ensureTpch(spark, 0.01)
  private def li = SynthData.lineitem(spark, 0.01)

  private def returned(phase: String): Long = Sim.get(phase).returnedBytes

  test("schema inference matches the stored schema") {
    ensure()
    val df = Plans.read(spark, "lineitem")
    assert(df.schema == new S3Client().schemaOf("lineitem"))
  }

  test("missing table option fails clearly") {
    ensure()
    val e = intercept[Exception](spark.read.format("s3select").load().count())
    assert(e.getMessage.contains("table"))
  }

  test("projection pushdown: only required columns transferred") {
    ensure()
    Sim.reset()
    Sim.inPhase("narrow") { Plans.read(spark, "lineitem").select("l_orderkey").count() }
    Sim.reset()
    Sim.inPhase("wide") { Plans.read(spark, "lineitem").count() }
    // count() prunes to zero/few columns in both cases; compare select vs collect
    Sim.reset()
    Sim.inPhase("one") { Plans.read(spark, "lineitem").select("l_orderkey").collect() }
    Sim.reset()
    Sim.inPhase("all") { Plans.read(spark, "lineitem").collect() }
    assert(returned("one") * 4 < returned("all"),
      s"${returned("one")} vs ${returned("all")}")
  }

  test("filter pushdown leaves no Filter node for translatable predicates") {
    ensure()
    val df = Plans.read(spark, "lineitem").where(col("l_quantity") < 5)
    val plan = df.queryExecution.executedPlan.toString
    assert(!plan.contains("Filter ("), s"residual filter in plan:\n$plan")
  }

  test("pushed scan description carries the S3 Select SQL") {
    ensure()
    val df = Plans.read(spark, "lineitem").where(col("l_quantity") < 5).select("l_orderkey")
    val plan = df.queryExecution.executedPlan.toString
    assert(plan.contains("s3select SELECT"), plan)
  }

  test("date filters push down and match the oracle") {
    ensure()
    val df = Plans.read(spark, "lineitem")
      .where(col("l_shipdate") >= lit("1994-01-01").cast("date") &&
             col("l_shipdate") < lit("1994-02-01").cast("date"))
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(df,
      "SELECT count(*) AS n FROM lineitem WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1994-02-01'",
      "lineitem" -> li)
  }

  test("IN-list and string filters push down with correct results") {
    ensure()
    val df = Plans.read(spark, "lineitem")
      .where(col("l_shipmode").isin("AIR", "RAIL") && col("l_returnflag") === "N")
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(df,
      "SELECT count(*) AS n FROM lineitem WHERE l_shipmode IN ('AIR','RAIL') AND l_returnflag = 'N'",
      "lineitem" -> li)
  }

  test("startsWith pushes as LIKE") {
    ensure()
    val n1 = Plans.read(spark, "part").where(col("p_type").startsWith("PROMO")).count()
    val n2 = SynthData.part(spark, 0.01).where(col("p_type").startsWith("PROMO")).count()
    assert(n1 == n2 && n1 > 0)
  }

  test("untranslatable predicate stays as a Spark-side residual but is still correct") {
    ensure()
    // endsWith on a computed expression can't be translated to our Filter set
    val df = Plans.read(spark, "customer")
      .where(length(col("c_mktsegment")) === 8) // LENGTH not in our pushdown set
    val expected = SynthData.customer(spark, 0.01).where(length(col("c_mktsegment")) === 8).count()
    assert(df.count() == expected)
    val plan = df.queryExecution.executedPlan.toString
    assert(plan.contains("Filter"), "residual should remain in Spark plan")
  }

  test("pushdown=off transfers whole objects") {
    ensure()
    Sim.reset()
    Sim.inPhase("off") {
      Plans.read(spark, "customer", pushdown = false).where(col("c_acctbal") <= -950).collect()
    }
    val m = Sim.get("off")
    assert(m.selectRequests == 0 && m.getRequests == 8)
    assert(m.returnedBytes == new S3Client().tableBytes("customer"))
  }

  test("extraWhere ANDs an S3 Select predicate into the scan") {
    ensure()
    val df = Plans.read(spark, "customer", extraWhere = Some("c_nationkey = 3"))
      .where(col("c_acctbal") > 0)
    val expected = SynthData.customer(spark, 0.01)
      .where(col("c_nationkey") === 3 && col("c_acctbal") > 0).count()
    assert(df.count() == expected)
  }

  test("extraWhere over the 256KB limit is rejected") {
    ensure()
    val big = "c_nationkey = " + "1" * (300 * 1024)
    val e = intercept[Exception] {
      Plans.read(spark, "customer", extraWhere = Some(big)).count()
    }
    def chain(t: Throwable): Seq[Throwable] =
      Option(t).toSeq.flatMap(x => x +: chain(x.getCause))
    assert(chain(e).exists(_.isInstanceOf[ExpressionTooLargeException]), e.toString)
  }

  test("limit pushdown stops the storage scan early") {
    ensure()
    Sim.reset()
    Sim.inPhase("lim") { Plans.read(spark, "lineitem").limit(5).collect() }
    val m = Sim.get("lim")
    assert(m.scannedBytes < new S3Client().tableBytes("lineitem") / 10,
      s"scanned ${m.scannedBytes}")
  }

  test("aggregate pushdown: sum/count/min/max in one scan, one row per object") {
    ensure()
    Sim.reset()
    val row = Sim.inPhase("agg") {
      Plans.read(spark, "lineitem")
        .agg(sum("l_quantity").as("sq"), count(lit(1)).as("n"),
             min("l_extendedprice").as("mn"), max("l_extendedprice").as("mx"))
        .collect()(0)
    }
    val exp = li.agg(sum("l_quantity"), count(lit(1)), min("l_extendedprice"), max("l_extendedprice")).collect()(0)
    assert(math.abs(row.getDouble(0) - exp.getDouble(0)) < 1e-6)
    assert(row.getLong(1) == exp.getLong(1))
    assert(row.getDouble(2) == exp.getDouble(2))
    assert(row.getDouble(3) == exp.getDouble(3))
    assert(Sim.get("agg").returnedBytes < 1000, "aggregate not pushed")
  }

  test("aggregate pushdown with filters composes") {
    ensure()
    Sim.reset()
    val n = Sim.inPhase("aggf") {
      Plans.read(spark, "lineitem")
        .where(col("l_quantity") < 10 && col("l_returnflag") === "R")
        .agg(count(lit(1)).as("n")).collect()(0).getLong(0)
    }
    val exp = li.where(col("l_quantity") < 10 && col("l_returnflag") === "R").count()
    assert(n == exp)
    assert(Sim.get("aggf").returnedBytes < 1000)
  }

  test("group-by aggregation is NOT pushed (S3 Select has no GROUP BY)") {
    ensure()
    Sim.reset()
    val rows = Sim.inPhase("grp") {
      Plans.read(spark, "customer").groupBy("c_nationkey")
        .agg(sum("c_acctbal").as("s")).collect()
    }
    assert(rows.length == 25)
    // the group column itself must have been transferred for every row
    assert(Sim.get("grp").returnedBytes > 1500, "group-by must not collapse at storage")
    val duck = "SELECT c_nationkey, ROUND(SUM(CAST(c_acctbal AS DOUBLE)),2) AS s FROM customer GROUP BY c_nationkey"
    Oracle.assertEquivalent(
      Plans.read(spark, "customer").groupBy("c_nationkey")
        .agg(round(sum("c_acctbal"), 2).as("s")),
      duck, "customer" -> SynthData.customer(spark, 0.01))
  }

  test("string filters on text holding a LIKE wildcard match it literally") {
    S3Store.putCsvTable(S3Store.global, S3Client.DefaultBucket, "like_test",
      StructType(Seq(StructField("s", StringType))), Array(Array("500"), Array("50%"), Array("a_b")), 1)
    def matching(c: Column): Seq[String] =
      Plans.read(spark, "like_test").where(c).collect().map(_.getString(0)).toSeq
    assert(matching(col("s").startsWith("50%")) == Seq("50%"))
    assert(matching(col("s").endsWith("%")) == Seq("50%"))
    assert(matching(col("s").contains("_")) == Seq("a_b"))
  }

  /** A 4-object table in the shared store for the metering tests. */
  private lazy val meterKeys = S3Store.putCsvTable(S3Store.global, S3Client.DefaultBucket, "meter_test",
    StructType(Seq(StructField("id", LongType), StructField("price", DoubleType),
      StructField("name", StringType))),
    Array.tabulate(400)(i => Array(i.toString, f"${i % 37 * 1.5}%.2f", s"n${i % 7}")), 4)

  /** The metrics of `body`, run in a fresh phase. */
  private def metered(body: => Any): PhaseView = {
    Sim.reset()
    Sim.inPhase("p") { body }
    Sim.get("p")
  }

  test("a pushed read meters what S3Client.select of its SQL meters") {
    meterKeys
    val df = Plans.read(spark, "meter_test",
        extraWhere = Some("SUBSTRING('0110100110', (id % 10) + 1, 1) = '1'"))
      .where(col("price") > 20).select("id", "name")
    val sql = df.queryExecution.sparkPlan
      .collectFirst { case s: BatchScanExec => s.scan.description() }.get.stripPrefix("s3select ")
    val read = metered { Plans.force(df) }
    assert(read == metered { new S3Client().select("meter_test", sql) }, sql)
    assert(read.selectRequests == meterKeys.size && read.exprFactor > 1.0, read)
  }

  test("a pushdown=off read meters what per-object GETs meter") {
    meterKeys
    val read = metered {
      Plans.force(Plans.read(spark, "meter_test", pushdown = false).where(col("price") > 20))
    }
    val client = new S3Client()
    assert(read == metered { meterKeys.foreach(client.getObject) })
    assert(read.getRequests == meterKeys.size && read.selectRequests == 0, read)
  }

  test("avg is not pushed but still computed correctly") {
    ensure()
    val got = Plans.read(spark, "lineitem").agg(avg("l_quantity")).collect()(0).getDouble(0)
    val exp = li.agg(avg("l_quantity")).collect()(0).getDouble(0)
    assert(math.abs(got - exp) < 1e-9)
  }

  test("full scan equals the generating DataFrame row-for-row") {
    ensure()
    val a = Plans.read(spark, "orders").orderBy("o_orderkey").collect()
    val b = SynthData.orders(spark, 0.01).orderBy("o_orderkey").collect()
    assert(a.length == b.length)
    assert(a.take(50).map(_.toString).sameElements(b.take(50).map(_.toString)))
  }
}
