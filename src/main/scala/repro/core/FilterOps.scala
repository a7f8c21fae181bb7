package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import repro.s3._
import Plans._

/** The three filtering strategies of §IV, over a stored table.
  *
  * The filtered rows (all columns) are the query result. The sweep parameter
  * is a predicate; for the paper's Figure 1 it is
  * `l_extendedprice <= 900 + selectivity * 90000` on `lineitem`.
  */
object FilterOps {

  /** Server-side filter: transfer the whole table, filter in Spark. */
  def serverSide(spark: SparkSession, table: String, pred: Column, scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val df = Sim.inPhase("load") { toDriver(read(spark, table, pushdown = false).where(pred)).df }
    Sim.phase("load").localWork(client.tableRows(table), Model.RowLight) // local predicate eval
    finish(df, Seq(Seq("load")), scale)
  }

  /** S3-side filter: the predicate is pushed into the storage scan by
    * Catalyst (`SupportsPushDownFilters`); only matches are transferred.
    */
  def s3Side(spark: SparkSession, table: String, pred: Column, scale: Double): PlanResult = {
    Sim.reset()
    val df = Sim.inPhase("scan") { toDriver(read(spark, table, pushdown = true).where(pred)).df }
    finish(df, Seq(Seq("scan")), scale)
  }

  /** S3-side indexing (§IV-A): query the index table with S3 Select, then
    * fetch each matching record with a byte-range GET.
    *
    * @param indexPred S3 Select predicate over the index value column `val`,
    *                  e.g. `"val <= 1800.0"`.
    */
  def indexed(spark: SparkSession, table: String, column: String, indexPred: String,
              scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val idxTable = s"$table.idx.$column"

    // Phase 1: S3 Select on the index table returns (shard, off, len).
    val entries = Sim.inPhase("index") {
      client.select(idxTable, s"SELECT shard, off, len FROM S3Object WHERE $indexPred")
    }
    Sim.phase("index").localWork(entries.size.toLong, Model.RowLight)

    // Phase 2: one HTTP range GET per selected record (no S3 Select charge).
    val dataKeys = client.objectKeys(table).toIndexedSeq
    val schema   = client.schemaOf(table)
    val rows = Sim.inPhase("fetch") {
      val fetched = entries.map { e =>
        val shard = e(0).toInt
        client.getRange(dataKeys(shard), e(1).toLong, e(2).toInt)
      }
      Sim.currentPhase.localParse(fetched.iterator.map(r => CsvCodec.rowBytes(r).toLong).sum)
      fetched
    }
    val df = TableCatalog.toDataFrame(spark, rows, schema)
    finish(df, Seq(Seq("index"), Seq("fetch")), scale,
      Map("selectedRows" -> entries.size.toString))
  }
}
