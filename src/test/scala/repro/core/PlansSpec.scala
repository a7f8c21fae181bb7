package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.s3._
import repro.tpch.Tpch

/** How a plan phase is materialized: `Plans.force` meters the scan once,
  * counts rows in the same job, and leaves nothing in Spark's cache.
  */
class PlansSpec extends SparkSpec {

  private val sf = 0.01
  private def ensure(): Unit = TableCatalog.ensureTpch(spark, sf)

  /** Both Fig-10 columns, with the parameters of `Figures.fig10`. */
  private def fig10Plans: Seq[(String, () => PlanResult)] = {
    val scale = 10.0 / sf
    val k = 100
    val sOpt = TopKOps.optimalSampleSize(k, new S3Client().tableRows("lineitem"), 0.1)
    val filter = col("l_extendedprice") <= 900 + 1e-3 * 90000
    val joinP = JoinOps.Params(-950, None)
    Seq[(String, () => PlanResult)](
      "Filter baseline" -> (() => FilterOps.serverSide(spark, "lineitem", filter, scale)),
      "Filter optimized" -> (() => FilterOps.s3Side(spark, "lineitem", filter, scale)),
      "Join baseline" -> (() => JoinOps.baseline(spark, joinP, scale)),
      "Join optimized" -> (() => JoinOps.bloom(spark, joinP, scale)),
      "Group-by baseline" -> (() =>
        GroupByOps.serverSide(spark, "customer", "c_nationkey", Seq("c_acctbal"), scale)),
      "Group-by optimized" -> (() =>
        GroupByOps.s3Side(spark, "customer", "c_nationkey", Seq("c_acctbal"), scale)),
      "Top-K baseline" -> (() => TopKOps.serverSide(spark, "lineitem", "l_extendedprice", k, scale)),
      "Top-K optimized" -> (() =>
        TopKOps.sampling(spark, "lineitem", "l_extendedprice", k, sOpt, scale)),
    ) ++ Tpch.queries.flatMap { q =>
      Seq[(String, () => PlanResult)](
        s"${q.name} baseline" -> (() => Tpch.baseline(spark, q, scale)),
        s"${q.name} optimized" -> (() => Tpch.optimized(spark, q.name, scale)))
    }
  }

  test("force counts the rows of the frame it materializes") {
    ensure()
    Sim.reset()
    val f = Sim.inPhase("scan") {
      Plans.force(Plans.read(spark, "lineitem").where(col("l_extendedprice") <= 5000))
    }
    assert(f.rows == f.df.count())
    assert(f.rows > 0)
    assert(f.df.rdd.getNumPartitions == new S3Client().objectKeys("lineitem").size)
    assert(Sim.get("scan").selectRequests == f.df.rdd.getNumPartitions)
  }

  test("Fig-10 plans leave the cache empty and are not re-read by later actions") {
    ensure()
    spark.catalog.clearCache()
    fig10Plans.foreach { case (name, run) =>
      val r = run()
      assert(spark.sharedState.cacheManager.isEmpty, s"$name left a cached frame")
      val metered = Sim.snapshot()
      assert(metered == r.phases, name)
      r.df.collect()
      assert(Sim.snapshot() == metered, s"$name: a second action on its result read S3 again")
    }
  }
}
