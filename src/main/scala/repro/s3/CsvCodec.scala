package repro.s3

/** Minimal CSV encoding used by the simulated object store.
  *
  * Values are comma-separated, newline-terminated; our synthetic data never
  * contains commas/newlines/quotes so no quoting is needed (asserted by
  * [[checkRow]]). Sizes, offsets and lengths count UTF-8 bytes, so that index
  * tables (§IV-A) can address individual records with HTTP range GETs.
  */
object CsvCodec {

  /** One encoded object: raw bytes plus per-row (offset, length). */
  final case class Encoded(bytes: Array[Byte], offsets: Array[Long], lengths: Array[Int])

  /** Reject a row with a cell that would need quoting (unsupported). */
  def checkRow(r: Array[String]): Unit = r.foreach { cell =>
    require(cell == null || (cell.indexOf(',') < 0 && cell.indexOf('\n') < 0 && cell.indexOf('"') < 0),
      s"cell needs quoting, unsupported: '$cell'")
  }

  def encode(rows: Iterable[Array[String]]): Encoded = {
    val out  = new java.io.ByteArrayOutputStream
    val lens = Array.newBuilder[Int]
    rows.foreach { r =>
      val bytes = line(r)
      out.write(bytes)
      lens += bytes.length
    }
    val lengths = lens.result()
    Encoded(out.toByteArray, offsets(lengths), lengths)
  }

  /** One record: cells joined by commas and ended by a newline; a null cell is empty. */
  def line(r: Array[String]): Array[Byte] = {
    checkRow(r)
    r.iterator.map(c => if (c == null) "" else c).mkString("", ",", "\n")
      .getBytes(java.nio.charset.StandardCharsets.UTF_8)
  }

  /** Start offset of each record, given every record's length. */
  def offsets(lengths: Array[Int]): Array[Long] = lengths.scanLeft(0L)(_ + _).init

  def decodeLine(line: String): Array[String] = {
    // split preserving trailing empty cells
    line.split(",", -1)
  }

  def decode(bytes: Array[Byte]): Array[Array[String]] = {
    val lines = new String(bytes, java.nio.charset.StandardCharsets.UTF_8).split("\n", -1)
    // every row ends with a newline: only the text after the last one is not
    // a row (an empty line is a row whose only cell is empty)
    val n = if (lines.last.isEmpty) lines.length - 1 else lines.length
    lines.iterator.take(n).map(decodeLine).toArray
  }

  /** Encoded size of one row, the way S3 Select returns results (CSV). */
  def rowBytes(row: Array[String]): Int = {
    var n = math.max(row.length, 1) // commas + newline
    var i = 0
    while (i < row.length) { n += cellBytes(row(i)); i += 1 }
    n
  }

  /** UTF-8 size of one cell; a null cell is empty. */
  def cellBytes(cell: String): Int = {
    if (cell == null) return 0
    var n = cell.length
    var i = 0
    while (i < cell.length) {
      // a char beyond ASCII takes 2 bytes below U+0800 and 3 above; a
      // surrogate pair (two chars) takes 4
      val c = cell.charAt(i)
      if (c >= 0x80) n += (if (c < 0x800 || Character.isSurrogate(c)) 1 else 2)
      i += 1
    }
    n
  }
}
