package repro.s3

/** Minimal CSV encoding used by the simulated object store.
  *
  * Values are comma-separated, newline-terminated; our synthetic data never
  * contains commas/newlines/quotes so no quoting is needed (asserted at
  * encode time). Byte offsets of each row are recorded so that index tables
  * (§IV-A) can address individual records with HTTP range GETs.
  */
object CsvCodec {

  /** One encoded object: raw bytes plus per-row (offset, length). */
  final case class Encoded(bytes: Array[Byte], offsets: Array[Long], lengths: Array[Int])

  def encode(rows: Iterable[Array[String]]): Encoded = {
    val sb   = new java.lang.StringBuilder
    val offs = Array.newBuilder[Long]
    val lens = Array.newBuilder[Int]
    rows.foreach { r =>
      val start = sb.length
      var i = 0
      while (i < r.length) {
        val cell = if (r(i) == null) "" else r(i)
        require(cell.indexOf(',') < 0 && cell.indexOf('\n') < 0 && cell.indexOf('"') < 0,
          s"cell needs quoting, unsupported: '$cell'")
        sb.append(cell)
        if (i < r.length - 1) sb.append(',')
        i += 1
      }
      sb.append('\n')
      offs += start.toLong
      lens += (sb.length - start)
    }
    Encoded(sb.toString.getBytes(java.nio.charset.StandardCharsets.UTF_8), offs.result(), lens.result())
  }

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

  /** Encode a single output row the way S3 Select returns results (CSV). */
  def rowBytes(row: Array[String]): Int = {
    var n = row.length // commas + newline
    var i = 0
    while (i < row.length) { if (row(i) != null) n += row(i).length; i += 1 }
    n
  }
}
