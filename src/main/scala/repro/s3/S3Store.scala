package repro.s3

import org.apache.spark.sql.types._
import scala.collection.concurrent.TrieMap

/** A stored object. Two physical formats, mirroring the paper's §IX:
  *
  *  - [[CsvObject]]: row-major text; any scan touches every byte.
  *  - [[ColumnarObject]] ("Parquet-lite"): column-major with per-column byte
  *    accounting and a Snappy-like compression factor; a scan touches only
  *    the referenced columns' (compressed) bytes. Responses are still CSV,
  *    as the real S3 Select returns CSV even for Parquet objects.
  *
  * Both keep one in-memory copy: the rows they were built from. Sizes,
  * record offsets and range-GET bytes are derived from those rows.
  */
sealed trait StoredObject {
  def key: String
  def schema: StructType
  /** The stored rows, read by the evaluator and by whole-object GETs. */
  def rows: Array[Array[String]]
  def numRows: Int = rows.length
  def sizeBytes: Long
  /** Bytes the storage engine reads to scan the given columns (None = all). */
  def scanBytes(columns: Option[Set[String]]): Long
}

final class CsvObject(
    val key: String,
    val schema: StructType,
    val rows: Array[Array[String]],
) extends StoredObject {
  rows.foreach(CsvCodec.checkRow)
  /** Encoded UTF-8 length of each record, newline included. */
  val rowLengths: Array[Int] = rows.map(CsvCodec.rowBytes)
  /** Byte offset of each record in the encoded object. */
  val rowOffsets: Array[Long] = CsvCodec.offsets(rowLengths)
  val sizeBytes: Long = scanBytesUpTo(numRows)
  /** CSV is row-major: column pruning cannot reduce scanned bytes. */
  def scanBytes(columns: Option[Set[String]]): Long = sizeBytes
  /** Bytes scanned when the engine stops after `rowsRead` rows (LIMIT). */
  def scanBytesUpTo(rowsRead: Int): Long = {
    val last = math.min(rowsRead, numRows) - 1
    if (last < 0) 0L else rowOffsets(last) + rowLengths(last)
  }

  /** The whole object's CSV encoding, built on each call. */
  def bytes: Array[Byte] = CsvCodec.encode(rows).bytes

  /** Byte-range GET. The range must be exactly one whole record. */
  def range(offset: Long, length: Int): Array[Byte] = {
    val r = java.util.Arrays.binarySearch(rowOffsets, offset)
    require(r >= 0 && rowLengths(r) == length,
      s"range [$offset, +$length) of $key is not one whole record")
    CsvCodec.line(rows(r))
  }
}

final class ColumnarObject(
    val key: String,
    val schema: StructType,
    val rows: Array[Array[String]],
    val compressionFactor: Double,       // paper: Snappy Parquet = 0.7 of raw
) extends StoredObject {
  /** Raw text bytes per column (what the column would occupy as CSV cells). */
  val columnRawBytes: Array[Long] =
    Array.tabulate(schema.size)(c => rows.foldLeft(0L)((n, r) => n + CsvCodec.cellBytes(r(c)) + 1))
  def sizeBytes: Long = math.round(columnRawBytes.sum * compressionFactor)
  def scanBytes(cols: Option[Set[String]]): Long = cols match {
    case None => sizeBytes
    case Some(names) =>
      val idx = schema.fieldNames.iterator.zipWithIndex
        .filter { case (n, _) => names.contains(n.toLowerCase) }
        .map(_._2)
      math.round(idx.map(columnRawBytes(_)).sum * compressionFactor)
  }
}

/** An in-JVM "S3": buckets of named objects. A JVM-wide singleton registry so
  * that Spark tasks in local mode and the driver see the same store — the
  * stand-in for the shared S3 service (substitution documented in DESIGN.md).
  */
final class S3Store {
  private val objects = new TrieMap[(String, String), StoredObject]

  def put(bucket: String, obj: StoredObject): Unit = objects.put((bucket, obj.key), obj)

  def get(bucket: String, key: String): StoredObject =
    objects.getOrElse((bucket, key), throw new NoSuchElementException(s"s3://$bucket/$key"))

  def list(bucket: String, prefix: String): Seq[String] =
    objects.keys.iterator
      .collect { case (b, k) if b == bucket && k.startsWith(prefix) => k }
      .toSeq.sorted

  def exists(bucket: String, key: String): Boolean = objects.contains((bucket, key))

  def drop(bucket: String, prefix: String): Unit =
    objects.keys.iterator
      .filter { case (b, k) => b == bucket && k.startsWith(prefix) }
      .foreach(objects.remove)

  def clear(): Unit = objects.clear()

  def totalBytes(bucket: String, prefix: String): Long =
    list(bucket, prefix).map(get(bucket, _).sizeBytes).sum
}

object S3Store {
  /** The shared "cloud" instance. */
  val global: S3Store = new S3Store

  /** Build and store a partitioned CSV table: rows are split into
    * `numShards` consecutive blocks stored as `<name>/part-<i>`.
    */
  def putCsvTable(store: S3Store, bucket: String, name: String, schema: StructType,
                  rows: Array[Array[String]], numShards: Int): Seq[String] =
    putTable(store, bucket, name, rows, numShards)(new CsvObject(_, schema, _))

  /** Build and store a partitioned Parquet-lite table. */
  def putColumnarTable(store: S3Store, bucket: String, name: String, schema: StructType,
                       rows: Array[Array[String]], numShards: Int,
                       compressionFactor: Double = 0.7): Seq[String] =
    putTable(store, bucket, name, rows, numShards)(new ColumnarObject(_, schema, _, compressionFactor))

  /** Replace the table `name` by `numShards` objects; with more shards than
    * rows the last objects are empty.
    */
  private def putTable(store: S3Store, bucket: String, name: String, rows: Array[Array[String]],
                       numShards: Int)(make: (String, Array[Array[String]]) => StoredObject): Seq[String] = {
    store.drop(bucket, name + "/")
    val n = rows.length
    val per = math.max(1, (n + numShards - 1) / numShards)
    (0 until numShards).map { i =>
      val key = f"$name/part-$i%04d"
      store.put(bucket, make(key, rows.slice(i * per, math.min(n, (i + 1) * per))))
      key
    }
  }
}
