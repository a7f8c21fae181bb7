package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.s3._
import org.apache.spark.sql.types._

class BloomFilterSpec extends AnyFunSuite {

  test("sizing formulas match the paper (k = log2(1/p), m = s|ln p|/(ln 2)^2)") {
    assert(BloomFilter.numHashes(0.01) == 7)
    assert(BloomFilter.numHashes(0.5) == 1)
    assert(BloomFilter.numHashes(0.0001) == 14)
    // s=1000, p=0.01 → m ≈ 9585
    assert(math.abs(BloomFilter.numBits(1000, 0.01) - 9586) <= 2)
  }

  test("no false negatives, ever (randomized)") {
    val rnd = new scala.util.Random(1)
    for (trial <- 1 to 50; p <- Seq(0.001, 0.01, 0.1)) {
      val keys = List.fill(200)(rnd.nextLong().abs % 1000000L)
      val f = BloomFilter.build(keys, p, seed = trial)
      assert(keys.forall(f.mightContain), s"false negative at p=$p trial=$trial")
    }
  }

  test("empirical false positive rate is near the target") {
    val keys = (1L to 2000L).map(_ * 7)
    val f = BloomFilter.build(keys, 0.01)
    val keySet = keys.toSet
    val probes = (1L to 20000L).filterNot(keySet.contains)
    val fp = probes.count(f.mightContain).toDouble / probes.size
    assert(fp < 0.05, s"fp rate $fp")
  }

  test("higher target FPR gives more false positives") {
    val keys = (1L to 1000L).map(_ * 3)
    val keySet = keys.toSet
    val probes = (1L to 50000L).filterNot(keySet.contains)
    def fp(p: Double) = {
      val f = BloomFilter.build(keys, p)
      probes.count(f.mightContain).toDouble / probes.size
    }
    assert(fp(0.5) > fp(0.01))
  }

  test("nextPrime") {
    assert(BloomFilter.nextPrime(8) == 11)
    assert(BloomFilter.nextPrime(11) == 11)
    assert(BloomFilter.nextPrime(1) == 2)
  }

  test("bit string marks exactly the set slots") {
    val f = BloomFilter.build(Seq(42L), 0.5) // k=1
    val s = f.bitString
    assert(s.count(_ == '1') == 1)
    assert(s.length == f.m)
  }

  test("SQL predicate is k AND-ed SUBSTRING probes embedding the bit array") {
    val f = BloomFilter.build((1L to 50L).toSeq, 0.01)
    val sql = f.toSqlPredicate("o_custkey")
    assert(sql.split(" AND ").length == f.k)
    assert(sql.contains(s"% ${f.m} + 1, 1) = '1'"))
    assert(sql.contains("CAST(o_custkey AS INT)"))
  }

  test("SQL predicate evaluated by the engine matches mightContain") {
    val keys = Seq(3L, 17L, 99L, 1024L)
    val f = BloomFilter.build(keys, 0.01)
    val schema = StructType(Seq(StructField("k", LongType)))
    val all = (0L until 1200L).map(i => Array(i.toString))
    val obj = new CsvObject("x", schema, all.toArray)
    val sql = s"SELECT k FROM S3Object WHERE ${f.toSqlPredicate("k")}"
    val passed = SelectEngine.run(obj, SelectParser.parse(sql)).rows.map(_(0).toLong).toSet
    assert((0L until 1200L).forall(i => passed.contains(i) == f.mightContain(i)))
    assert(keys.forall(passed.contains))
  }

  test("predicate length drives the expression-size fallback") {
    val keys = (1L to 5000L).toSeq
    // tiny limit: not satisfiable at any FPR < 1 → None (degrade to filtered join)
    assert(BloomFilter.buildWithinLimit(keys, 0.01, "k", limitBytes = 100).isEmpty)
  }

  test("predicate size counts UTF-8 bytes") {
    val f = BloomFilter.build(Seq(1L, 2L, 3L), 0.1)
    assert(f.sqlPredicateSize("k") == f.toSqlPredicate("k").length)
    // each probe names the column once; 'é' takes 2 bytes
    assert(f.sqlPredicateSize("k\u00e9") == f.toSqlPredicate("k\u00e9").length + f.k)
  }

  test("buildWithinLimit degrades FPR until the predicate fits") {
    val keys = (1L to 20000L).toSeq
    // at p=0.01 the predicate is ~1.3 MB; limit forces a larger p
    val Some((f, usedFpr)) = BloomFilter.buildWithinLimit(keys, 0.01, "k", limitBytes = 256 * 1024)
    assert(usedFpr > 0.01)
    assert(f.sqlPredicateSize("k") <= 256 * 1024)
    assert(keys.forall(f.mightContain)) // still no false negatives
  }

  test("bloomProbe degrades to no predicate when no FPR below 1 fits") {
    val probe = JoinOps.bloomProbe((1L to 200000L).toSeq, 0.01, "k")
    assert(probe.extraWhere.isEmpty)
    assert(probe.info == Map("fpr" -> "degraded"))
  }

  test("bloomProbe ships the filter's predicate and records its FPR and size") {
    val keys = (1L to 100L).toSeq
    val probe = JoinOps.bloomProbe(keys, 0.01, "k")
    val Some((f, _)) = BloomFilter.buildWithinLimit(keys, 0.01, "k")
    assert(probe.extraWhere.contains(f.toSqlPredicate("k")))
    assert(probe.info == Map("fpr" -> "0.01", "bloomBits" -> f.m.toString,
      "bloomHashes" -> f.k.toString))
  }

  test("buildWithinLimit keeps the requested FPR when it fits") {
    val keys = (1L to 100L).toSeq
    val Some((_, usedFpr)) = BloomFilter.buildWithinLimit(keys, 0.01, "k")
    assert(usedFpr == 0.01)
  }

  test("deterministic in the seed") {
    val keys = (1L to 100L).toSeq
    val a = BloomFilter.build(keys, 0.01, seed = 7).bitString
    val b = BloomFilter.build(keys, 0.01, seed = 7).bitString
    val c = BloomFilter.build(keys, 0.01, seed = 8).bitString
    assert(a == b)
    assert(a != c)
  }

  test("empty key set yields a filter that rejects everything") {
    val f = BloomFilter.build(Nil, 0.01)
    assert(!f.mightContain(1L) && !f.mightContain(42L))
  }
}
