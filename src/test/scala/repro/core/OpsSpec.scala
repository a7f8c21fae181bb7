package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.s3._

/** Operator-level detail tests: metrics, phase structure, degradation paths
  * and result equivalence for the §IV–§VII algorithms.
  */
class FilterOpsSpec extends SparkSpec {

  private def ensure(): Unit = TableCatalog.ensureTpch(spark, 0.01)

  test("server-side filter transfers the whole table") {
    ensure()
    val r = FilterOps.serverSide(spark, "lineitem", col("l_extendedprice") <= 1000, 100)
    assert(r.bytesReturned == new S3Client().tableBytes("lineitem"))
    assert(r.bytesScanned == 0)
    assert(r.cost.scan == 0.0)
  }

  test("s3-side filter scans everything, returns only matches") {
    ensure()
    val r = FilterOps.s3Side(spark, "lineitem", col("l_extendedprice") <= 1000, 100)
    assert(r.bytesScanned == new S3Client().tableBytes("lineitem"))
    assert(r.bytesReturned < r.bytesScanned / 100)
  }

  test("indexing issues one GET per selected row and never scans the data table") {
    ensure()
    val r = FilterOps.indexed(spark, "lineitem", "l_extendedprice", "val <= 1000", 100)
    val n = r.df.count()
    assert(r.getRequests == n)
    // scan charge only against the (smaller) index table
    assert(r.bytesScanned == new S3Client().tableBytes("lineitem.idx.l_extendedprice"))
    assert(r.info("selectedRows").toLong == n)
  }

  test("the three strategies return identical row sets") {
    ensure()
    val pred = col("l_extendedprice") <= 1200
    val a = FilterOps.serverSide(spark, "lineitem", pred, 100).df
      .orderBy("l_orderkey", "l_linenumber").collect().map(_.toString)
    val b = FilterOps.s3Side(spark, "lineitem", pred, 100).df
      .orderBy("l_orderkey", "l_linenumber").collect().map(_.toString)
    val c = FilterOps.indexed(spark, "lineitem", "l_extendedprice", "val <= 1200.0", 100).df
      .orderBy("l_orderkey", "l_linenumber").collect().map(_.toString)
    assert(a.sameElements(b))
    assert(a.sameElements(c))
  }

  test("index handles range predicates with both bounds") {
    ensure()
    val r = FilterOps.indexed(spark, "lineitem", "l_extendedprice",
      "val >= 1000 AND val <= 1500", 100)
    val expected = SynthData.lineitem(spark, 0.01)
      .where(col("l_extendedprice") >= 1000 && col("l_extendedprice") <= 1500).count()
    assert(r.df.count() == expected)
  }
}

class JoinOpsSpec extends SparkSpec {

  private def ensure(): Unit = TableCatalog.ensureTpch(spark, 0.01)
  private def oracleCheck(r: PlanResult, p: JoinOps.Params): Unit =
    Oracle.assertEquivalent(
      r.df.select(round(col("total"), 2).as("total")),
      s"SELECT ROUND(SUM(CAST(o_totalprice AS DOUBLE)), 2) AS total FROM customer, orders " +
        s"WHERE o_custkey = c_custkey AND CAST(c_acctbal AS DOUBLE) <= ${p.upperAcct}" +
        p.upperDate.map(d => s" AND o_orderdate < '$d'").getOrElse(""),
      "customer" -> SynthData.customer(spark, 0.01),
      "orders" -> SynthData.orders(spark, 0.01))

  test("bloom join with a date filter matches the oracle") {
    ensure()
    val p = JoinOps.Params(-900, Some("1994-01-01"))
    oracleCheck(JoinOps.bloom(spark, p, 100), p)
  }

  test("bloom join at high FPR still returns exact results (probe rejects FPs)") {
    ensure()
    val p = JoinOps.Params(-900, None, fpr = 0.5)
    oracleCheck(JoinOps.bloom(spark, p, 100), p)
  }

  test("bloom probe returns fewer bytes than filtered probe") {
    ensure()
    val p = JoinOps.Params(-950, None)
    val f = JoinOps.filtered(spark, p, 100)
    val b = JoinOps.bloom(spark, p, 100)
    assert(b.bytesReturned * 5 < f.bytesReturned,
      s"bloom ${b.bytesReturned} vs filtered ${f.bytesReturned}")
  }

  test("bloom join records the FPR actually used") {
    ensure()
    val r = JoinOps.bloom(spark, JoinOps.Params(-950, None, fpr = 0.01), 100)
    assert(r.info("fpr").toDouble == 0.01)
    assert(r.info("bloomHashes").toInt == 7)
  }

  test("phases: baseline loads overlap, bloom phases are serial") {
    ensure()
    val b = JoinOps.baseline(spark, JoinOps.Params(-950, None), 100)
    assert(b.phases.map(_.name).toSet == Set("build", "probe", "join"))
    val bl = JoinOps.bloom(spark, JoinOps.Params(-950, None), 100)
    // serial build→probe: bloom runtime includes both phases end to end
    val tBuild = RuntimeModel.phaseSeconds(bl.phases.find(_.name == "build").get, 100)
    val tProbe = RuntimeModel.phaseSeconds(bl.phases.find(_.name == "probe").get, 100)
    assert(bl.runtimeSeconds >= tBuild + tProbe - 1e-9)
  }

  test("empty build side produces an empty (null) sum") {
    ensure()
    val p = JoinOps.Params(-2000, None) // below the c_acctbal minimum
    val r = JoinOps.bloom(spark, p, 100)
    assert(r.df.collect()(0).isNullAt(0))
  }
}

class GroupByOpsSpec extends SparkSpec {

  private val table = "gb_test"
  private def ensure(): Unit = {
    TableCatalog.ensure(table, "v1") {
      SynthData.groupTable(spark, 5000, Seq(8, 100), 4, theta = 1.1, seed = 11)
    }
  }
  private val aggCols = Seq("v0", "v1")

  // No rounding: 4-decimal inputs make sums land exactly on rounding
  // boundaries where Spark (half-up) and DuckDB (half-even) disagree; the
  // oracle's %.6f canonicalization already absorbs FP summation noise.
  private def duck(g: String) =
    s"""SELECT $g, SUM(CAST(v0 AS DOUBLE)) AS sum_v0,
       | SUM(CAST(v1 AS DOUBLE)) AS sum_v1
       |FROM gt GROUP BY $g""".stripMargin

  private def check(r: PlanResult, g: String): Unit =
    Oracle.assertEquivalent(
      r.df.select(col(g), col("sum_v0"), col("sum_v1")),
      duck(g),
      "gt" -> SynthData.groupTable(spark, 5000, Seq(8, 100), 4, theta = 1.1, seed = 11))

  test("all four algorithms match the oracle on an 8-group column") {
    ensure()
    check(GroupByOps.serverSide(spark, table, "g0", aggCols, 100), "g0")
    check(GroupByOps.filtered(spark, table, "g0", aggCols, 100), "g0")
    check(GroupByOps.s3Side(spark, table, "g0", aggCols, 100), "g0")
    check(GroupByOps.hybrid(spark, table, "g0", aggCols, 3, 100), "g0")
  }

  test("hybrid on a 100-group skewed column matches the oracle") {
    ensure()
    check(GroupByOps.hybrid(spark, table, "g1", aggCols, 8, 100), "g1")
  }

  test("hybrid with zero pushed groups degenerates to server aggregation") {
    ensure()
    val r = GroupByOps.hybrid(spark, table, "g1", aggCols, 0, 100)
    check(r, "g1")
    assert(r.info("pushedGroups") == "0")
    assert(r.phases.find(_.name == "bigagg").forall(_.selectRequests == 0))
  }

  test("filtered transfers only the projected columns") {
    ensure()
    val all = GroupByOps.serverSide(spark, table, "g0", aggCols, 100)
    val proj = GroupByOps.filtered(spark, table, "g0", aggCols, 100)
    assert(proj.bytesReturned * 2 < all.bytesReturned)
  }

  test("s3-side returns one partial row per shard per query") {
    ensure()
    val r = GroupByOps.s3Side(spark, table, "g0", aggCols, 100)
    assert(r.bytesReturned < 100000)
    val agg = r.phases.find(_.name == "caseagg").get
    assert(agg.selectRequests == TableCatalog.DefaultShards)
  }

  test("s3-side phase 2 exprFactor reflects groups x aggregates CASE terms") {
    ensure()
    val r = GroupByOps.s3Side(spark, table, "g0", aggCols, 100)
    val agg = r.phases.find(_.name == "caseagg").get
    assert(math.abs(agg.exprFactor - (1.0 + Model.CaseCostPerTerm * 8 * 2)) < 1e-6)
  }

  test("CASE partials merge column-wise, an empty or NULL cell counting as 0") {
    val totals = GroupByOps.sumPartials(Seq(Array("1.5", ""), Array(null, "2"), Array("2.5", "3")))
    assert(totals.toSeq == Seq(4.0, 5.0))
  }

  test("hybrid sample phase scans only ~1% of the table") {
    ensure()
    val r = GroupByOps.hybrid(spark, table, "g1", aggCols, 8, 100)
    val sample = r.phases.find(_.name == "sample").get
    assert(sample.scannedBytes < new S3Client().tableBytes(table) / 20)
  }
}

class TopKOpsSpec extends SparkSpec {

  private def ensure(): Unit = TableCatalog.ensureTpch(spark, 0.01)

  test("optimal sample size formula sqrt(KN/alpha)") {
    assert(TopKOps.optimalSampleSize(100, 60000000, 0.1) == 244949)
    assert(TopKOps.optimalSampleSize(1, 100, 1.0) == 10)
    // never smaller than K+1
    assert(TopKOps.optimalSampleSize(100, 100, 1.0) == 101)
  }

  test("sampling with tiny sample still returns the exact top K") {
    ensure()
    val expected = SynthData.lineitem(spark, 0.01).orderBy(asc("l_extendedprice")).limit(50)
      .select("l_extendedprice").collect().map(_.getDouble(0)).sorted.toSeq
    val r = TopKOps.sampling(spark, "lineitem", "l_extendedprice", 50, 200, 100)
    val got = r.df.select("l_extendedprice").collect().map(_.getDouble(0)).sorted.toSeq
    assert(got == expected)
  }

  test("sampling with sample larger than the table works") {
    ensure()
    val r = TopKOps.sampling(spark, "lineitem", "l_extendedprice", 10, 1000000, 100)
    assert(r.df.count() == 10)
  }

  test("K=1 returns the global minimum") {
    ensure()
    val mn = SynthData.lineitem(spark, 0.01).agg(min("l_extendedprice")).collect()(0).getDouble(0)
    val r = TopKOps.sampling(spark, "lineitem", "l_extendedprice", 1,
      TopKOps.optimalSampleSize(1, 60000, 0.1), 100)
    assert(r.df.select("l_extendedprice").collect()(0).getDouble(0) == mn)
  }

  test("phase-2 scan returns at least K and far fewer than N rows") {
    ensure()
    val r = TopKOps.sampling(spark, "lineitem", "l_extendedprice", 100,
      TopKOps.optimalSampleSize(100, 60000, 0.1), 100)
    val threshold = r.info("threshold").toDouble
    val qualified = SynthData.lineitem(spark, 0.01)
      .where(col("l_extendedprice") <= threshold).count()
    assert(qualified >= 100)
    assert(qualified < 60000 / 10)
  }

  test("a sample of fewer than K values pushes no threshold and still returns the top K") {
    ensure()
    val prices = (r: PlanResult) => r.df.select("l_extendedprice").collect().map(_.getDouble(0)).sorted.toSeq
    val r = TopKOps.sampling(spark, "lineitem", "l_extendedprice", k = 100, sampleSize = 10, 100)
    assert(!r.info.contains("threshold"))
    assert(prices(r).size == 100)
    assert(prices(r) == prices(TopKOps.serverSide(spark, "lineitem", "l_extendedprice", 100, 100)))
  }

  test("larger samples tighten the threshold") {
    ensure()
    val small = TopKOps.sampling(spark, "lineitem", "l_extendedprice", 100, 500, 100)
    val large = TopKOps.sampling(spark, "lineitem", "l_extendedprice", 100, 20000, 100)
    assert(large.info("threshold").toDouble <= small.info("threshold").toDouble)
    assert(large.phases.find(_.name == "scan").get.returnedBytes <=
           small.phases.find(_.name == "scan").get.returnedBytes)
  }
}

/** The join, group-by and top-K plans over tables stored in more objects
  * than they have rows: the empty objects add nothing, and the S3-side plan
  * agrees with its server-side twin.
  */
class EmptyObjectOpsSpec extends SparkSpec {

  private val shards = TableCatalog.DefaultShards
  private def sums(r: PlanResult): Seq[Option[BigDecimal]] =
    r.df.collect().toSeq.map(row =>
      Option(row.get(0)).map(v => BigDecimal(v.asInstanceOf[Double]).setScale(2, BigDecimal.RoundingMode.HALF_UP)))

  test("bloom join over empty objects matches the baseline join, also with zero build keys") {
    try {
      // 5 customers and 6 of their orders, each in 8 objects: 3 and 2 are empty
      TableCatalog.register(SynthData.customer(spark, 0.01).limit(5), "customer", shards)
      TableCatalog.register(
        SynthData.orders(spark, 0.01).where(col("o_custkey") <= 5).limit(6), "orders", shards)
      val all = JoinOps.Params(upperAcct = 1e9, None)
      val allBloom = JoinOps.bloom(spark, all, 100)
      assert(sums(allBloom).flatten.nonEmpty)
      assert(sums(allBloom) == sums(JoinOps.baseline(spark, all, 100)))

      val none = JoinOps.Params(upperAcct = -2000, None) // no customer passes: an all-zero filter
      val noneBloom = JoinOps.bloom(spark, none, 100)
      assert(noneBloom.info("fpr").toDouble == 0.01)
      assert(sums(noneBloom) == Seq(None))
      assert(sums(JoinOps.baseline(spark, none, 100)) == Seq(None))
    } finally TableCatalog.resetTpch() // the next ensureTpch re-registers the shared tables
  }

  test("S3-side group-by over empty objects matches the server-side group-by") {
    val table = "gb_empty"
    TableCatalog.register(SynthData.groupTable(spark, 5, Seq(3), 2, theta = 1.1, seed = 3), table, shards)
    val rows = (r: PlanResult) => r.df.collect().map { row =>
      (row.get(0), (1 to 2).map(i => BigDecimal(row.getDouble(i)).setScale(4, BigDecimal.RoundingMode.HALF_UP)))
    }.sortBy(_._1.toString).toSeq
    val s3 = GroupByOps.s3Side(spark, table, "g0", Seq("v0", "v1"), 100)
    assert(s3.phases.find(_.name == "caseagg").get.selectRequests == shards)
    assert(rows(s3).nonEmpty)
    assert(rows(s3) == rows(GroupByOps.serverSide(spark, table, "g0", Seq("v0", "v1"), 100)))
  }

  test("sampling top-K whose sample reaches empty objects matches the server-side top-K") {
    val table = "topk_empty"
    TableCatalog.register(SynthData.lineitem(spark, 0.01).limit(5), table, shards)
    val prices = (r: PlanResult) => r.df.select("l_extendedprice").collect().map(_.getDouble(0)).sorted.toSeq
    val s3 = TopKOps.sampling(spark, table, "l_extendedprice", 3, sampleSize = 100, 100)
    assert(s3.phases.find(_.name == "sample").get.selectRequests == shards) // read past the last row
    assert(prices(s3).size == 3)
    assert(prices(s3) == prices(TopKOps.serverSide(spark, table, "l_extendedprice", 3, 100)))
  }

  test("sampling top-K over an empty table returns no rows, as the server-side top-K does") {
    val table = "topk_none"
    TableCatalog.register(SynthData.lineitem(spark, 0.01).limit(0), table, shards)
    val s3 = TopKOps.sampling(spark, table, "l_extendedprice", 3, sampleSize = 10, 100)
    assert(!s3.info.contains("threshold"))
    assert(s3.df.collect().isEmpty)
    assert(TopKOps.serverSide(spark, table, "l_extendedprice", 3, 100).df.collect().isEmpty)
  }

  test("collecting an empty phase of a table with empty objects gives an empty frame") {
    val table = "topk_empty"
    TableCatalog.register(SynthData.lineitem(spark, 0.01).limit(5), table, shards)
    val scan = Plans.read(spark, table).where(col("l_extendedprice") < 0)
    Sim.reset()
    val f = Sim.inPhase("scan") { Plans.toDriver(scan) }
    assert(f.rows == 0)
    assert(f.df.schema == scan.schema)
    assert(f.df.collect().isEmpty)
    assert(Sim.get("scan").selectRequests == shards)
  }
}
