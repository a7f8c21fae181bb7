package repro.core

import org.apache.spark.sql.{SparkSession, functions}
import org.apache.spark.sql.functions._
import repro.s3._
import Plans._

/** The top-K algorithms of §VII over
  * `SELECT * FROM t ORDER BY col ASC LIMIT K`.
  */
object TopKOps {

  /** Paper's optimal sample size `S = sqrt(K*N/alpha)` (§VII-B). */
  def optimalSampleSize(k: Long, n: Long, alpha: Double): Long =
    math.max(k + 1, math.round(math.sqrt(k.toDouble * n / alpha)))

  /** Server-side top-K: full transfer, heap at the server. */
  def serverSide(spark: SparkSession, table: String, col: String, k: Int,
                 scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val n = client.tableRows(table)
    val df = Sim.inPhase("load") {
      toDriver(read(spark, table, pushdown = false).orderBy(asc(col)).limit(k)).df
    }
    // every transferred row is pushed through the server-side heap
    Sim.phase("load").localWork(n, Model.RowHash)
    Sim.phase("load").localSeconds.add(n * Model.RowSortPerLog * log2(k + 1))
    finish(df, Seq(Seq("load")), scale)
  }

  /** Sampling-based top-K (§VII-A): phase 1 reads the first S records'
    * ordering column and takes the K-th smallest as the threshold; phase 2
    * pushes `col <= threshold` to S3 and runs top-K over the survivors.
    * (The table's rows are in random order, so "first S" is a uniform
    * sample — exactly the paper's argument.) A sample of fewer than K
    * values bounds nothing, so phase 2 then pushes no threshold.
    */
  def sampling(spark: SparkSession, table: String, col: String, k: Int, sampleSize: Long,
               scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()

    val threshold = Sim.inPhase("sample") {
      val vals = client.select(table, s"SELECT $col FROM S3Object LIMIT $sampleSize")
        .map(_(0).toDouble)
      Sim.currentPhase.localSeconds.add(vals.length * Model.RowSortPerLog * log2(vals.length + 1))
      if (vals.length < k) None else Some(vals.sorted.apply(k - 1))
    }

    val df = Sim.inPhase("scan") {
      val scan = read(spark, table, pushdown = true)
      val d = force(threshold.fold(scan)(t => scan.where(functions.col(col) <= t)))
      Sim.currentPhase.localWork(d.rows, Model.RowHash) // returned rows feed the heap
      Sim.currentPhase.localSeconds.add(d.rows * Model.RowSortPerLog * log2(k + 1))
      val top = toDriver(d.df.orderBy(asc(col)).limit(k)).df
      release(d)
      top
    }
    finish(df, Seq(Seq("sample"), Seq("scan")), scale,
      threshold.map(t => "threshold" -> t.toString).toMap + ("sampleSize" -> sampleSize.toString))
  }

  private def log2(x: Double): Double = math.log(x) / math.log(2)
}
