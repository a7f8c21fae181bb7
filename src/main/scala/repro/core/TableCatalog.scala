package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.CatalystTypeConverters
import org.apache.spark.sql.types._
import repro.SynthData
import repro.s3._
import repro.s3.datasource.RowCodecs

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Materializes DataFrames into the simulated object store as partitioned
  * CSV (and optionally Parquet-lite) objects, and builds the §IV-A index
  * tables: `(value, shard, off, len)` rows addressing individual records of
  * the data table for byte-range GETs.
  */
object TableCatalog {

  val Bucket: String = S3Client.DefaultBucket
  val DefaultShards = 8

  /** Cells of a Row rendered the way the CSV object stores them. */
  def formatRow(row: Row, schema: StructType): Array[String] = {
    val out = new Array[String](schema.size)
    var i = 0
    while (i < schema.size) {
      val v = row.get(i)
      out(i) =
        if (v == null) ""
        else v match {
          case d: java.sql.Date       => d.toLocalDate.toString
          case d: java.time.LocalDate => d.toString
          case x                      => x.toString
        }
      i += 1
    }
    out
  }

  /** Store `df` as `numShards` CSV objects under `name/part-*`. */
  def register(df: DataFrame, name: String, numShards: Int = DefaultShards,
               store: S3Store = S3Store.global): Unit = {
    val schema = df.schema
    val rows = df.collect().map(r => formatRow(r, schema))
    S3Store.putCsvTable(store, Bucket, name, schema, rows, numShards)
  }

  /** Store `df` additionally in Parquet-lite columnar form under
    * `name.parquet/part-*` (Snappy-like 0.7 compression, §IX).
    */
  def registerColumnar(df: DataFrame, name: String, numShards: Int = DefaultShards,
                       store: S3Store = S3Store.global): Unit = {
    val schema = df.schema
    val rows = df.collect().map(r => formatRow(r, schema))
    S3Store.putColumnarTable(store, Bucket, name + ".parquet", schema, rows, numShards)
  }

  /** Build the index table `name.idx.column` over an already-registered CSV
    * table. Schema: (val <column type>, shard INT, off BIGINT, len INT).
    */
  def buildIndex(name: String, column: String, store: S3Store = S3Store.global): Unit = {
    val client = new S3Client(store, Bucket)
    val keys = client.objectKeys(name)
    val dataSchema = client.schemaOf(name)
    val colIdx = dataSchema.fieldIndex(
      dataSchema.fieldNames.find(_.equalsIgnoreCase(column))
        .getOrElse(throw new IllegalArgumentException(s"no column $column in $name")))
    val idxSchema = StructType(Seq(
      StructField("val", dataSchema.fields(colIdx).dataType),
      StructField("shard", IntegerType),
      StructField("off", LongType),
      StructField("len", IntegerType),
    ))
    val lenCells = mutable.HashMap.empty[Int, String] // one cell per distinct record length
    val idxRows = keys.zipWithIndex.flatMap { case (k, shard) =>
      store.get(Bucket, k) match {
        case c: CsvObject =>
          val s = shard.toString
          c.rows.indices.map { r =>
            val len = lenCells.getOrElseUpdate(c.rowLengths(r), c.rowLengths(r).toString)
            Array(c.rows(r)(colIdx), s, c.rowOffsets(r).toString, len)
          }
        case _ => throw new IllegalArgumentException(s"index over non-CSV object $k")
      }
    }.toArray
    S3Store.putCsvTable(store, Bucket, s"$name.idx.$column", idxSchema, idxRows, DefaultShards)
  }

  // ------------------------------------------------------------------ TPC-H
  /** Registered TPC-H-lite scale factor (so repeated suites can reuse). */
  @volatile private var tpchSf: Double = -1.0

  /** Register the four TPC-H-lite tables (+ the Fig-1 index on
    * l_extendedprice) at the given scale factor; no-op if already done.
    */
  def ensureTpch(spark: SparkSession, sf: Double, numShards: Int = DefaultShards): Unit = synchronized {
    if (tpchSf == sf) return
    register(SynthData.lineitem(spark, sf), "lineitem", numShards)
    register(SynthData.orders(spark, sf), "orders", numShards)
    register(SynthData.customer(spark, sf), "customer", numShards)
    register(SynthData.part(spark, sf), "part", numShards)
    buildIndex("lineitem", "l_extendedprice")
    tpchSf = sf
  }

  /** Drop the memo so the next ensureTpch call rebuilds (tests). */
  def resetTpch(): Unit = synchronized { tpchSf = -1.0 }

  // ---------------------------------------------------- synthetic tables
  private val registeredKeys = scala.collection.concurrent.TrieMap.empty[String, String]

  /** Register `build` under `name` unless the same `paramsKey` is already
    * stored (memoized across suites in the shared JVM).
    */
  def ensure(name: String, paramsKey: String, numShards: Int = DefaultShards,
             columnar: Boolean = false)(build: => DataFrame): Unit = synchronized {
    if (!registeredKeys.get(name).contains(paramsKey)) {
      val df = build
      register(df, name, numShards)
      if (columnar) registerColumnar(df, name, numShards)
      registeredKeys.put(name, paramsKey)
    }
  }

  /** Rebuild a DataFrame from raw engine/string rows with a given schema: a
    * local relation over rows the driver holds.
    */
  def toDataFrame(spark: SparkSession, rows: Seq[Array[String]], schema: StructType): DataFrame = {
    val sparkRows = rows.map { cells =>
      Row.fromSeq(schema.fields.toSeq.zipWithIndex.map { case (f, i) => parseCell(cells(i), f.dataType) })
    }
    spark.createDataFrame(sparkRows.asJava, schema)
  }

  /** A stored cell as the external value a Spark `Row` holds. */
  def parseCell(cell: String, t: DataType): Any =
    CatalystTypeConverters.convertToScala(RowCodecs.toCatalyst(cell, t), t)
}
