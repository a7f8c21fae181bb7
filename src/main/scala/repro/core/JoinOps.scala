package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.s3._
import Plans._

/** The three join algorithms of §V over the paper's synthetic join query
  * (Listing 2):
  *
  * {{{
  * SELECT SUM(o_totalprice) FROM customer, orders
  * WHERE o_custkey = c_custkey AND c_acctbal <= upperAcct
  *   AND o_orderdate < upperDate          -- optional
  * }}}
  */
object JoinOps {

  final case class Params(upperAcct: Double, upperDate: Option[String], fpr: Double = 0.01)

  /** The probe side of a Bloom join: the S3 Select predicate to AND into
    * the probe scan, or None when it is degraded to a filtered join, and the
    * `info` entries that record the decision.
    */
  final case class BloomProbe(extraWhere: Option[String], info: Map[String, String])

  private def customerSide(spark: SparkSession, p: Params, pushdown: Boolean): DataFrame = {
    val df = read(spark, "customer", pushdown).where(col("c_acctbal") <= p.upperAcct)
    if (pushdown) df.select("c_custkey") else df
  }

  private def ordersSide(spark: SparkSession, p: Params, pushdown: Boolean,
                         extraWhere: Option[String] = None): DataFrame = {
    val base = read(spark, "orders", pushdown, extraWhere)
    val filtered = p.upperDate match {
      case Some(d) => base.where(col("o_orderdate") < lit(d).cast("date"))
      case None    => base
    }
    if (pushdown) filtered.select("o_custkey", "o_totalprice") else filtered
  }

  /** The server's hash join: the (driver-held) customers are the broadcast
    * build side, the orders scan probes it.
    */
  private def joinAndSum(cust: DataFrame, ords: DataFrame): DataFrame =
    ords.join(broadcast(cust), ords("o_custkey") === cust("c_custkey"))
      .agg(sum("o_totalprice").as("total"))

  /** Baseline join: both tables fully transferred, everything in Spark. */
  def baseline(spark: SparkSession, p: Params, scale: Double): PlanResult =
    twoScans(spark, p, scale, pushdown = false)

  /** Filtered join: base predicates + projection pushed via S3 Select; the
    * join itself still runs in Spark over both (filtered) tables.
    */
  def filtered(spark: SparkSession, p: Params, scale: Double): PlanResult =
    twoScans(spark, p, scale, pushdown = true)

  private def twoScans(spark: SparkSession, p: Params, scale: Double, pushdown: Boolean): PlanResult = {
    Sim.reset()
    val cust = Sim.inPhase("build") { toDriver(customerSide(spark, p, pushdown)) }
    val ords = Sim.inPhase("probe") { force(ordersSide(spark, p, pushdown)) }
    val df = Sim.inPhase("join") {
      Sim.currentPhase.localWork(cust.rows + ords.rows, Model.RowHash)
      toDriver(joinAndSum(cust.df, ords.df)).df
    }
    release(ords)
    finish(df, Seq(Seq("build", "probe"), Seq("join")), scale)
  }

  /** Bloom join (§V-A): build side's keys become a SUBSTRING bit-array
    * predicate shipped to the probe-side S3 Select scan. If the predicate
    * cannot fit in 256 KB even at FPR→1, degrade to a *serial* filtered
    * join (the two loads can no longer overlap, §V-B1).
    */
  def bloom(spark: SparkSession, p: Params, scale: Double): PlanResult = {
    Sim.reset()
    val cust = Sim.inPhase("build") { toDriver(customerSide(spark, p, pushdown = true)) }
    val keys = cust.df.select("c_custkey").collect().map(_.getLong(0))
    Sim.phase("build").localWork(keys.length.toLong, Model.RowLight) // filter construction
    val probe = bloomProbe(keys, p.fpr, "o_custkey")

    val ords = Sim.inPhase("probe") {
      force(ordersSide(spark, p, pushdown = true, extraWhere = probe.extraWhere))
    }
    val df = Sim.inPhase("join") {
      Sim.currentPhase.localWork(cust.rows + ords.rows, Model.RowHash)
      toDriver(joinAndSum(cust.df, ords.df)).df
    }
    release(ords)
    finish(df, Seq(Seq("build"), Seq("probe"), Seq("join")), scale, probe.info)
  }

  /** Build the Bloom filter over `keys` on probe attribute `attr` at target
    * FPR `fpr`, raising the FPR until its predicate fits in 256 KB (§V-B1).
    * Info: `fpr` (the FPR used), `bloomBits` and `bloomHashes`; or only
    * `fpr -> "degraded"` when no FPR below 1 fits.
    */
  def bloomProbe(keys: Iterable[Long], fpr: Double, attr: String): BloomProbe =
    BloomFilter.buildWithinLimit(keys, fpr, attr) match {
      case Some((filter, usedFpr)) =>
        BloomProbe(Some(filter.toSqlPredicate(attr)),
          Map("fpr" -> usedFpr.toString, "bloomBits" -> filter.m.toString,
              "bloomHashes" -> filter.k.toString))
      case None => BloomProbe(None, Map("fpr" -> "degraded"))
    }

  /** The query as SQL for Spark views (baseline semantics). */
  def sparkSql(p: Params): String = {
    val datePred = p.upperDate.map(d => s" AND o_orderdate < DATE '$d'").getOrElse("")
    s"""SELECT SUM(o_totalprice) AS total FROM customer, orders
       |WHERE o_custkey = c_custkey AND c_acctbal <= ${p.upperAcct}$datePred""".stripMargin
  }

  /** The query as DuckDB SQL over all-VARCHAR oracle tables. */
  def duckSql(p: Params): String = {
    val datePred = p.upperDate.map(d => s" AND o_orderdate < '$d'").getOrElse("")
    s"""SELECT SUM(CAST(o_totalprice AS DOUBLE)) AS total FROM customer, orders
       |WHERE o_custkey = c_custkey AND CAST(c_acctbal AS DOUBLE) <= ${p.upperAcct}$datePred""".stripMargin
  }
}
