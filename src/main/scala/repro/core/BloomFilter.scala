package repro.core

import repro.s3.{CsvCodec, SelectParser}

/** Bloom filter as PushdownDB ships it to S3 Select (§V-A): universal
  * hashing `h(x) = ((a*x + b) mod n) mod m` (only arithmetic, which S3
  * Select supports), bit array serialized as a string of '0'/'1' characters
  * probed with `SUBSTRING(bits, h(attr)+1, 1) = '1'`.
  *
  * Sizing for false-positive rate p over s keys (§V-A1):
  * `k = ceil(log2(1/p))`, `m = ceil(s * |ln p| / (ln 2)^2)`.
  */
final class BloomFilter private (val m: Int, val n: Long, val hashes: Seq[(Long, Long)]) {

  private val bits = new java.util.BitSet(m)

  def k: Int = hashes.size

  private def slot(x: Long, a: Long, b: Long): Int =
    (Math.floorMod(a * x + b, n) % m).toInt

  def add(x: Long): Unit = hashes.foreach { case (a, b) => bits.set(slot(x, a, b)) }

  def mightContain(x: Long): Boolean =
    hashes.forall { case (a, b) => bits.get(slot(x, a, b)) }

  /** The '0'/'1' string form of the bit array. */
  def bitString: String = {
    val sb = new java.lang.StringBuilder(m)
    var i = 0
    while (i < m) { sb.append(if (bits.get(i)) '1' else '0'); i += 1 }
    sb.toString
  }

  /** The S3 Select predicate on `attr` (paper Listing 1): one SUBSTRING
    * probe per hash function, each embedding the full bit-array string —
    * which is why the 256 KB expression limit bites for large build sides.
    */
  def toSqlPredicate(attr: String): String = {
    val s = bitString
    hashes.map { case (a, b) =>
      s"SUBSTRING('$s', (($a * CAST($attr AS INT) + $b) % $n) % $m + 1, 1) = '1'"
    }.mkString(" AND ")
  }

  /** Size in UTF-8 bytes of the serialized predicate. */
  def sqlPredicateSize(attr: String): Int = CsvCodec.cellBytes(toSqlPredicate(attr))
}

object BloomFilter {

  /** Number of hash functions for target false-positive rate p. */
  def numHashes(p: Double): Int = math.max(1, math.ceil(math.log(1.0 / p) / math.log(2)).toInt)

  /** Bit-array length for s keys at false-positive rate p. */
  def numBits(s: Int, p: Double): Int =
    math.max(8, math.ceil(s * math.abs(math.log(p)) / (math.log(2) * math.log(2))).toInt)

  private def isPrime(x: Long): Boolean = {
    if (x < 2) false
    else if (x % 2 == 0) x == 2
    else {
      var d = 3L
      var ok = true
      while (ok && d * d <= x) { if (x % d == 0) ok = false else d += 2 }
      ok
    }
  }

  def nextPrime(from: Long): Long = {
    var x = math.max(2L, from)
    while (!isPrime(x)) x += 1
    x
  }

  /** Build a filter over `keys` with target FPR `p` (deterministic in seed). */
  def build(keys: Iterable[Long], p: Double, seed: Long = 42L): BloomFilter = {
    val s = keys.size
    val m = numBits(math.max(1, s), p)
    val k = numHashes(p)
    val n = nextPrime(m.toLong)
    val rnd = new scala.util.Random(seed)
    val hashes = Seq.fill(k) {
      val a = 1L + rnd.nextLong().abs % (n - 1) // a != 0
      val b = rnd.nextLong().abs % n
      (a, b)
    }
    val f = new BloomFilter(m, n, hashes)
    keys.foreach(f.add)
    f
  }

  /** Build the largest-FPR-compliant filter whose SQL predicate fits in
    * `limitBytes` (§V-B1): starting from `p`, raise the FPR (half-decade
    * steps) until the predicate fits; return None once p reaches 1 — the
    * caller then falls back to a (serial) filtered join.
    */
  def buildWithinLimit(keys: Iterable[Long], p: Double, attr: String,
                       limitBytes: Int = SelectParser.MaxExpressionBytes,
                       seed: Long = 42L): Option[(BloomFilter, Double)] = {
    var fpr = p
    while (fpr < 1.0) {
      val s = math.max(1, keys.size)
      // predicate size ≈ k * (m + ~70) — check before materializing
      val estimate = numHashes(fpr).toLong * (numBits(s, fpr).toLong + 80)
      if (estimate <= limitBytes) {
        val f = build(keys, fpr, seed)
        if (f.sqlPredicateSize(attr) <= limitBytes) return Some((f, fpr))
      }
      fpr *= math.sqrt(10.0)
    }
    None
  }
}
