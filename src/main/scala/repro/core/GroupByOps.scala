package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.s3._
import Plans._

/** The four group-by algorithms of §VI. The query is
  * `SELECT g, sum(a1), …, sum(aA) FROM t GROUP BY g`.
  */
object GroupByOps {

  /** Server-side group-by: full transfer, Spark aggregates. */
  def serverSide(spark: SparkSession, table: String, gCol: String, aggCols: Seq[String],
                 scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val df = Sim.inPhase("load") {
      val d = read(spark, table, pushdown = false)
        .groupBy(gCol).agg(aggCols.map(c => c -> "sum").toMap)
      toDriver(d).df
    }
    Sim.phase("load").localWork(client.tableRows(table), Model.RowHash)
    finish(normalize(df, gCol, aggCols), Seq(Seq("load")), scale)
  }

  /** Filtered group-by: projection pushed to S3 (only the grouping and
    * aggregated columns are transferred); Spark aggregates.
    */
  def filtered(spark: SparkSession, table: String, gCol: String, aggCols: Seq[String],
               scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val df = Sim.inPhase("load") {
      val d = read(spark, table, pushdown = true)
        .select(gCol, aggCols: _*)
        .groupBy(gCol).agg(aggCols.map(c => c -> "sum").toMap)
      toDriver(d).df
    }
    Sim.phase("load").localWork(client.tableRows(table), Model.RowHash)
    finish(normalize(df, gCol, aggCols), Seq(Seq("load")), scale)
  }

  /** S3-side group-by (§VI-A): phase 1 projects the group column and finds
    * distinct values at the server; phase 2 ships one
    * `SUM(CASE WHEN g=v THEN a ELSE 0 END)` per group × aggregate.
    */
  def s3Side(spark: SparkSession, table: String, gCol: String, aggCols: Seq[String],
             scale: Double): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val values = Sim.inPhase("distinct") {
      val vs = client.select(table, s"SELECT $gCol FROM S3Object")
      Sim.currentPhase.localWork(vs.size.toLong, Model.RowLight) // vectorized unique()
      vs.map(_(0)).distinct.sortBy(_.toLong)
    }
    val sums = Sim.inPhase("caseagg") { caseAggregate(client, table, gCol, aggCols, values) }
    val df = resultDf(spark, client, table, gCol, aggCols, sums)
    finish(df, Seq(Seq("distinct"), Seq("caseagg")), scale,
      Map("groups" -> values.size.toString))
  }

  /** Hybrid group-by (§VI-B): sample the first `samplePct` of rows to find
    * the `pushGroups` most populous groups; push their aggregation to S3
    * (Q1) while loading the remaining groups' rows for server aggregation
    * (Q2). Q1 and Q2 run in parallel.
    */
  def hybrid(spark: SparkSession, table: String, gCol: String, aggCols: Seq[String],
             pushGroups: Int, scale: Double, samplePct: Double = 0.01): PlanResult = {
    Sim.reset()
    val client = new S3Client()
    val totalRows = client.tableRows(table)
    val sampleN = math.max(1L, (totalRows * samplePct).toLong)

    val big = Sim.inPhase("sample") {
      val vs = client.select(table, s"SELECT $gCol FROM S3Object LIMIT $sampleN")
      Sim.currentPhase.localWork(vs.size.toLong, Model.RowLight)
      vs.groupBy(_(0)).view.mapValues(_.size).toSeq.sortBy(-_._2).take(pushGroups).map(_._1)
    }

    // Q1: S3-side aggregation of the populous groups.
    val bigSums =
      if (big.isEmpty) Map.empty[String, Seq[Double]]
      else Sim.inPhase("bigagg") { caseAggregate(client, table, gCol, aggCols, big) }

    // Q2: load the tail groups' rows, aggregate in Spark.
    val smallDf = Sim.inPhase("small") {
      val where =
        if (big.isEmpty) None
        else Some(s"$gCol NOT IN (${big.mkString(", ")})")
      val raw = client.select(table,
        s"SELECT $gCol, ${aggCols.mkString(", ")} FROM S3Object" +
          where.map(w => s" WHERE $w").getOrElse(""))
      Sim.currentPhase.localWork(raw.size.toLong, Model.RowHash)
      val schema = StructType(
        StructField(gCol, gTypeOf(client, table, gCol)) +:
          aggCols.map(c => StructField(c, DoubleType)))
      toDriver(TableCatalog.toDataFrame(spark, raw, schema)
        .groupBy(gCol).agg(aggCols.map(c => c -> "sum").toMap)).df
    }

    val bigDf = resultDf(spark, client, table, gCol, aggCols, bigSums)
    val df = toDriver(normalize(bigDf.union(normalize(smallDf, gCol, aggCols)), gCol, aggCols)).df
    finish(df, Seq(Seq("sample"), Seq("bigagg", "small")), scale,
      Map("pushedGroups" -> big.size.toString))
  }

  // ------------------------------------------------------------------ utils

  /** Ship the CASE-encoded per-group aggregation (paper Listings 4/5) and
    * merge per-object partial sums at the server. Returns group → sums.
    */
  private def caseAggregate(client: S3Client, table: String, gCol: String,
                            aggCols: Seq[String], groups: Seq[String]): Map[String, Seq[Double]] = {
    val projs = for (v <- groups; a <- aggCols)
      yield s"sum(CASE WHEN $gCol = $v THEN $a ELSE 0 END)"
    val totals = sumPartials(client.select(table, s"SELECT ${projs.mkString(", ")} FROM S3Object"))
    groups.zipWithIndex.map { case (v, gi) =>
      v -> aggCols.indices.map(ai => totals(gi * aggCols.size + ai))
    }.toMap
  }

  /** Merge the one-row-per-object partial sums of a CASE aggregation: the
    * column-wise totals. An object with no matching rows returns NULL (an
    * empty cell) for SUM, which counts as 0.
    */
  def sumPartials(partials: Seq[Array[String]]): Array[Double] =
    Array.tabulate(partials.headOption.fold(0)(_.length)) { i =>
      partials.foldLeft(0.0)((t, row) => if (row(i) == null || row(i).isEmpty) t else t + row(i).toDouble)
    }

  private def gTypeOf(client: S3Client, table: String, gCol: String): DataType = {
    val s = client.schemaOf(table)
    s.fields(s.fieldIndex(s.fieldNames.find(_.equalsIgnoreCase(gCol)).getOrElse(gCol))).dataType
  }

  private def resultDf(spark: SparkSession, client: S3Client, table: String, gCol: String,
                       aggCols: Seq[String], sums: Map[String, Seq[Double]]): DataFrame = {
    val schema = StructType(
      StructField(gCol, gTypeOf(client, table, gCol)) +:
        aggCols.map(c => StructField(s"sum_$c", DoubleType)))
    val rows = sums.toSeq.map { case (v, ss) => (v +: ss.map(_.toString)).toArray }
    TableCatalog.toDataFrame(spark, rows, schema)
  }

  /** Stable output shape: (g, sum_a1, …) with deterministic column names. */
  def normalize(df: DataFrame, gCol: String, aggCols: Seq[String]): DataFrame = {
    val renamed = aggCols.foldLeft(df) { (d, c) =>
      val from = d.columns.find(n => n.equalsIgnoreCase(s"sum($c)") || n.equalsIgnoreCase(s"sum_$c"))
      from.fold(d)(f => d.withColumnRenamed(f, s"sum_$c"))
    }
    renamed.select(col(gCol) +: aggCols.map(c => col(s"sum_$c").cast("double").as(s"sum_$c")): _*)
  }
}
