package perfbench

/** Minimal JSON writer for the benchmark's output: maps, iterables,
  * strings, numbers and booleans. Non-finite numbers become null.
  */
object Json {
  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]      => xs.iterator.map(apply).mkString("[", ",", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\r' => sb.append("\\r")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }
}

/** Order statistics over samples. */
object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** The highest whole percentile with at least ten samples beyond it, but
    * never below the median: with n samples that is 100 * (1 - 10/n),
    * floored. Returns (percentile, value).
    */
  def tail(xs: Seq[Double]): (Int, Double) = {
    val p = math.max(50, math.floor(100.0 * (1.0 - 10.0 / xs.size)).toInt)
    (p, quantile(xs, p / 100.0))
  }

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)
}
