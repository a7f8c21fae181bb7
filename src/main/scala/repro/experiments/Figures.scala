package repro.experiments

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._
import repro.s3._
import repro.tpch.Tpch

/** One runner per evaluation figure of the paper. Each returns a [[Fig]]
  * whose rendered table is the figure's data; bench suites assert the shape
  * and EXPERIMENTS.md records paper vs. measured numbers.
  *
  * `sf` is the TPC-H-lite scale factor of the *stored* data (0.1 for
  * benches, 0.01 for fast checks); metrics are scaled to the paper's SF 10
  * (scale = 10/sf) before the runtime/cost model. Synthetic tables scale by
  * target bytes instead (10 GB group-by table, 100 MB/column float table).
  */
object Figures {

  private def client = new S3Client()

  def tpchScale(sf: Double): Double = 10.0 / sf

  // ------------------------------------------------------------- Figure 1
  /** Filter strategies vs. selectivity (§IV-B). Predicate:
    * `l_extendedprice <= 900 + sel * 90000` (uniform in [900, 90900]).
    */
  def fig1(spark: SparkSession, sf: Double,
           sels: Seq[Double] = Seq(1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)): Fig = {
    TableCatalog.ensureTpch(spark, sf)
    val scale = tpchScale(sf)
    val entries = sels.flatMap { sel =>
      val hi = 900 + sel * 90000
      Seq(
        Entry(f"sel=$sel%.0e", "server-side",
          FilterOps.serverSide(spark, "lineitem", col("l_extendedprice") <= hi, scale)),
        Entry(f"sel=$sel%.0e", "s3-side",
          FilterOps.s3Side(spark, "lineitem", col("l_extendedprice") <= hi, scale)),
        Entry(f"sel=$sel%.0e", "indexing",
          FilterOps.indexed(spark, "lineitem", "l_extendedprice", s"val <= $hi", scale)),
      )
    }
    Fig("Figure 1: filter algorithms vs selectivity", entries)
  }

  // --------------------------------------------------------- Figures 2-4
  def fig2(spark: SparkSession, sf: Double,
           accts: Seq[Double] = Seq(-950, -850, -750, -650, -550, -450)): Fig = {
    TableCatalog.ensureTpch(spark, sf)
    val scale = tpchScale(sf)
    val entries = accts.flatMap { a =>
      val p = JoinOps.Params(a, None)
      Seq(
        Entry(s"acct<=$a", "baseline", JoinOps.baseline(spark, p, scale)),
        Entry(s"acct<=$a", "filtered", JoinOps.filtered(spark, p, scale)),
        Entry(s"acct<=$a", "bloom",    JoinOps.bloom(spark, p, scale)),
      )
    }
    Fig("Figure 2: join vs customer selectivity", entries)
  }

  def fig3(spark: SparkSession, sf: Double,
           dates: Seq[Option[String]] = Seq(Some("1992-03-01"), Some("1992-06-01"),
             Some("1993-01-01"), Some("1994-01-01"), Some("1995-01-01"), None)): Fig = {
    TableCatalog.ensureTpch(spark, sf)
    val scale = tpchScale(sf)
    val entries = dates.flatMap { d =>
      val p = JoinOps.Params(-950, d)
      val label = s"date<${d.getOrElse("None")}"
      Seq(
        Entry(label, "baseline", JoinOps.baseline(spark, p, scale)),
        Entry(label, "filtered", JoinOps.filtered(spark, p, scale)),
        Entry(label, "bloom",    JoinOps.bloom(spark, p, scale)),
      )
    }
    Fig("Figure 3: join vs orders selectivity", entries)
  }

  def fig4(spark: SparkSession, sf: Double,
           fprs: Seq[Double] = Seq(0.0001, 0.001, 0.01, 0.1, 0.3, 0.5)): Fig = {
    TableCatalog.ensureTpch(spark, sf)
    val scale = tpchScale(sf)
    val base = JoinOps.Params(-950, None)
    val ref = Seq(
      Entry("ref", "baseline", JoinOps.baseline(spark, base, scale)),
      Entry("ref", "filtered", JoinOps.filtered(spark, base, scale)),
    )
    val entries = fprs.map { fpr =>
      Entry(s"fpr=$fpr", "bloom", JoinOps.bloom(spark, base.copy(fpr = fpr), scale))
    }
    Fig("Figure 4: bloom join vs false-positive rate", ref ++ entries)
  }

  // --------------------------------------------------------- Figures 5-7
  /** Uniform group-size table: 10 group columns with 2,4,…,1024 groups +
    * 10 value columns; queries aggregate 4 value columns (§VI-C1).
    */
  def groupTableUniform(spark: SparkSession, rows: Long): String = {
    val name = "groups_uniform"
    TableCatalog.ensure(name, s"rows=$rows") {
      SynthData.groupTable(spark, rows, (1 to 10).map(1 << _), nValCols = 10, theta = 0.0)
    }
    name
  }

  def groupTableSkew(spark: SparkSession, rows: Long, theta: Double): String = {
    val name = f"groups_skew_$theta%.1f"
    TableCatalog.ensure(name, s"rows=$rows,theta=$theta") {
      SynthData.groupTable(spark, rows, Seq.fill(10)(100), nValCols = 10, theta = theta)
    }
    name
  }

  private val AggCols = Seq("v0", "v1", "v2", "v3")

  /** Scale synthetic tables to the paper's 10 GB. */
  private def groupScale(table: String): Double = 1e10 / client.tableBytes(table)

  def fig5(spark: SparkSession, rows: Long,
           groupCounts: Seq[Int] = Seq(2, 4, 8, 16, 32)): Fig = {
    val table = groupTableUniform(spark, rows)
    val scale = groupScale(table)
    val entries = groupCounts.flatMap { g =>
      val gCol = s"g${(math.log(g.toDouble) / math.log(2)).round.toInt - 1}"
      Seq(
        Entry(s"groups=$g", "server-side",
          GroupByOps.serverSide(spark, table, gCol, AggCols, scale)),
        Entry(s"groups=$g", "filtered",
          GroupByOps.filtered(spark, table, gCol, AggCols, scale)),
        Entry(s"groups=$g", "s3-side",
          GroupByOps.s3Side(spark, table, gCol, AggCols, scale)),
      )
    }
    Fig("Figure 5: group-by vs number of groups (uniform)", entries)
  }

  /** Hybrid split sweep: how many groups to aggregate at S3 (§VI-C2). The
    * per-entry info records the modeled seconds of the S3 (Q1) and server
    * (Q2) sides, the paper's two bars.
    */
  def fig6(spark: SparkSession, rows: Long,
           pushCounts: Seq[Int] = 0 to 10): Fig = {
    val table = groupTableSkew(spark, rows, 1.3)
    val scale = groupScale(table)
    val entries = pushCounts.map { g =>
      val r = GroupByOps.hybrid(spark, table, "g0", AggCols, g, scale)
      val s3Side  = RuntimeModel.phaseSeconds(r.phases.find(_.name == "bigagg").getOrElse(PhaseView.empty("bigagg")), scale)
      val srvSide = RuntimeModel.phaseSeconds(r.phases.find(_.name == "small").getOrElse(PhaseView.empty("small")), scale)
      Entry(s"pushed=$g", "hybrid",
        r.copy(info = r.info ++ Map(
          "s3agg_s" -> f"$s3Side%.2f", "serveragg_s" -> f"$srvSide%.2f")))
    }
    Fig("Figure 6: hybrid group-by S3/server split (theta=1.3)", entries)
  }

  def fig7(spark: SparkSession, rows: Long,
           thetas: Seq[Double] = Seq(0.0, 0.4, 0.8, 1.1, 1.3),
           pushGroups: Int = 8): Fig = {
    val entries = thetas.flatMap { t =>
      val table = groupTableSkew(spark, rows, t)
      val scale = groupScale(table)
      Seq(
        Entry(f"theta=$t%.1f", "server-side",
          GroupByOps.serverSide(spark, table, "g0", AggCols, scale)),
        Entry(f"theta=$t%.1f", "filtered",
          GroupByOps.filtered(spark, table, "g0", AggCols, scale)),
        Entry(f"theta=$t%.1f", "hybrid",
          GroupByOps.hybrid(spark, table, "g0", AggCols, pushGroups, scale)),
      )
    }
    Fig("Figure 7: group-by vs data skew", entries)
  }

  // --------------------------------------------------------- Figures 8-9
  /** Sample-size sensitivity (§VII-C1). The sweep is expressed relative to
    * the stored table's N (the paper's 1e3…1e7 over N=6e7); the model
    * optimum sqrt(KN/alpha) is included as its own point.
    */
  def fig8(spark: SparkSession, sf: Double, k: Int = 100,
           alpha: Double = 0.1): Fig = {
    TableCatalog.ensureTpch(spark, sf)
    val scale = tpchScale(sf)
    val n = client.tableRows("lineitem")
    val sOpt = TopKOps.optimalSampleSize(k, n, alpha)
    // paper sweep 1e3..1e7 over N=6e7, expressed as the same S/N ratios
    val sweep = (Seq(n / 60000, n / 6000, n / 600, n / 60, n / 6, sOpt)
      .map(math.max(_, k + 1L)).distinct.sorted)
    val entries = sweep.map { s =>
      val r = TopKOps.sampling(spark, "lineitem", "l_extendedprice", k, s, scale)
      val t1 = RuntimeModel.phaseSeconds(r.phases.find(_.name == "sample").get, scale)
      val t2 = RuntimeModel.phaseSeconds(r.phases.find(_.name == "scan").get, scale)
      val label = if (s == sOpt) s"S=$s(opt)" else s"S=$s"
      Entry(label, "sampling",
        r.copy(info = r.info ++ Map("phase1_s" -> f"$t1%.2f", "phase2_s" -> f"$t2%.2f")))
    }
    Fig("Figure 8: top-K sampling vs sample size", entries)
  }

  def fig9(spark: SparkSession, sf: Double,
           ks: Seq[Int] = Seq(1, 10, 100, 1000, 10000), alpha: Double = 0.1): Fig = {
    TableCatalog.ensureTpch(spark, sf)
    val scale = tpchScale(sf)
    val n = client.tableRows("lineitem")
    val entries = ks.flatMap { k =>
      val s = TopKOps.optimalSampleSize(k, n, alpha)
      Seq(
        Entry(s"K=$k", "server-side",
          TopKOps.serverSide(spark, "lineitem", "l_extendedprice", k, scale)),
        Entry(s"K=$k", "sampling",
          TopKOps.sampling(spark, "lineitem", "l_extendedprice", k, s, scale)),
      )
    }
    Fig("Figure 9: top-K vs K", entries)
  }

  // ---------------------------------------------------------- Figure 10
  /** Baseline vs optimized PushdownDB: the four representative operator
    * queries + six TPC-H queries + geo-mean (§VIII).
    */
  def fig10(spark: SparkSession, sf: Double): Fig = {
    val entries = fig10Plans(spark, sf).flatMap { case (name, baseline, optimized) =>
      val base = baseline()
      val opt  = optimized()
      Seq(Entry(name, "baseline", base),
          Entry(name, "optimized",
            opt.copy(info = opt.info + ("speedup" -> f"${base.runtimeSeconds / opt.runtimeSeconds}%.2f"))))
    }
    Fig("Figure 10: baseline vs optimized PushdownDB", entries)
  }

  /** The rows of Figure 10 over the TPC-H-lite tables at `sf` (registered
    * here): each row's name, its baseline plan and its optimized plan.
    */
  def fig10Plans(spark: SparkSession, sf: Double): Seq[(String, () => PlanResult, () => PlanResult)] = {
    TableCatalog.ensureTpch(spark, sf)
    val scale = tpchScale(sf)
    val k = 100
    val sOpt = TopKOps.optimalSampleSize(k, client.tableRows("lineitem"), 0.1)
    val filter = col("l_extendedprice") <= 900 + 1e-3 * 90000
    val joinP = JoinOps.Params(-950, None)

    Seq[(String, () => PlanResult, () => PlanResult)](
      ("Filter",
        () => FilterOps.serverSide(spark, "lineitem", filter, scale),
        () => FilterOps.s3Side(spark, "lineitem", filter, scale)),
      ("Join",
        () => JoinOps.baseline(spark, joinP, scale),
        () => JoinOps.bloom(spark, joinP, scale)),
      ("Group-by",
        () => GroupByOps.serverSide(spark, "customer", "c_nationkey", Seq("c_acctbal"), scale),
        () => GroupByOps.s3Side(spark, "customer", "c_nationkey", Seq("c_acctbal"), scale)),
      ("Top-K",
        () => TopKOps.serverSide(spark, "lineitem", "l_extendedprice", k, scale),
        () => TopKOps.sampling(spark, "lineitem", "l_extendedprice", k, sOpt, scale)),
    ) ++ Tpch.queries.map { q =>
      (q.name, () => Tpch.baseline(spark, q, scale), () => Tpch.optimized(spark, q.name, scale))
    }
  }

  /** Geo-mean speedup and cost ratio over a fig10 result. */
  def fig10Summary(fig: Fig): (Double, Double) = {
    val names = fig.entries.map(_.config).distinct
    val speedups = names.map(n => fig.runtime(n, "baseline") / fig.runtime(n, "optimized"))
    val costRatios = names.map(n => fig.cost(n, "optimized") / fig.cost(n, "baseline"))
    def geomean(xs: Seq[Double]) = math.exp(xs.map(math.log).sum / xs.size)
    (geomean(speedups), geomean(costRatios))
  }

  // ---------------------------------------------------------- Figure 11
  /** CSV vs Parquet-lite filter scans (§IX): 1/10/20-column float tables,
    * query returns one filtered column, selectivity 0…1.
    */
  def fig11(spark: SparkSession, rows: Long,
            colCounts: Seq[Int] = Seq(1, 10, 20),
            sels: Seq[Double] = Seq(0.0, 0.25, 0.5, 0.75, 1.0)): Fig = {
    val entries = colCounts.flatMap { nc =>
      val name = s"floats$nc"
      TableCatalog.ensure(name, s"rows=$rows,cols=$nc", columnar = true) {
        SynthData.floatTable(spark, rows, nc)
      }
      val scale = nc * 100e6 / client.tableBytes(name) // paper: 100 MB per column
      sels.flatMap { q =>
        def scan(table: String, algo: String): Entry = {
          Sim.reset()
          val rowsOut = Sim.inPhase("scan") {
            client.select(table, s"SELECT c0 FROM S3Object WHERE c0 <= $q")
          }
          val phases = Sim.snapshot()
          val runtime = RuntimeModel.phaseSeconds(Sim.get("scan"), scale)
          val df = spark.range(rowsOut.size) // row count carrier; values unused
          Entry(s"cols=$nc sel=$q", algo,
            PlanResult(df.toDF(), phases, runtime, RuntimeModel.cost(phases, runtime, scale),
              Map("rows" -> rowsOut.size.toString)))
        }
        Seq(scan(name, "csv"), scan(name + ".parquet", "parquet"))
      }
    }
    Fig("Figure 11: CSV vs Parquet filter scan", entries)
  }
}
