package repro.s3

import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

class SelectEngineSpec extends AnyFunSuite {

  private val schema = StructType(Seq(
    StructField("id", LongType),
    StructField("price", DoubleType),
    StructField("name", StringType),
    StructField("d", DateType),
  ))

  private def obj(rows: Array[String]*): CsvObject = new CsvObject("t/part-0000", schema, rows.toArray)

  private val data = obj(
    Array("1", "10.5", "alpha", "1994-01-01"),
    Array("2", "20.0", "beta", "1995-06-15"),
    Array("3", "30.25", "gamma", "1996-12-31"),
    Array("4", "40.0", "alphabet", "1994-07-01"),
    Array("5", "", "empty", "1994-01-02"),
  )

  private def run(sql: String, o: StoredObject = data) =
    SelectEngine.run(o, SelectParser.parse(sql))

  test("select star returns all rows and charges full scan") {
    val r = run("SELECT * FROM S3Object")
    assert(r.rows.size == 5)
    assert(r.scannedBytes == data.sizeBytes)
    assert(r.returnedBytes > 0)
  }

  test("projection returns raw cells in order") {
    val r = run("SELECT name, id FROM S3Object")
    assert(r.rows.head.toSeq == Seq("alpha", "1"))
  }

  test("numeric filter on double column") {
    val r = run("SELECT id FROM S3Object WHERE price > 15")
    assert(r.rows.map(_(0)).toSet == Set("2", "3", "4"))
  }

  test("long equality filter") {
    assert(run("SELECT name FROM S3Object WHERE id = 3").rows.map(_(0)) == Vector("gamma"))
  }

  test("date range as ISO string comparison") {
    val r = run("SELECT id FROM S3Object WHERE d >= '1994-01-01' AND d < '1995-01-01'")
    assert(r.rows.map(_(0)).toSet == Set("1", "4", "5"))
  }

  test("DATE literal form") {
    val r = run("SELECT id FROM S3Object WHERE d < DATE '1995-01-01'")
    assert(r.rows.map(_(0)).toSet == Set("1", "4", "5"))
  }

  test("LIKE prefix") {
    val r = run("SELECT id FROM S3Object WHERE name LIKE 'alpha%'")
    assert(r.rows.map(_(0)).toSet == Set("1", "4"))
  }

  test("LIKE underscore") {
    assert(run("SELECT id FROM S3Object WHERE name LIKE 'bet_'").rows.map(_(0)) == Vector("2"))
  }

  test("LIKE matches regex metacharacters in the pattern literally") {
    val o = obj(
      Array("1", "1.0", "abc", "1994-01-01"),
      Array("2", "2.0", "a.cd", "1994-01-01"),
      Array("3", "3.0", "(x)y", "1994-01-01"),
      Array("4", "4.0", "xy", "1994-01-01"))
    assert(run("SELECT id FROM S3Object WHERE name LIKE 'a.c%'", o).rows.map(_(0)) == Vector("2"))
    assert(run("SELECT id FROM S3Object WHERE name LIKE '(x)%'", o).rows.map(_(0)) == Vector("3"))
    assert(run("SELECT id FROM S3Object WHERE name NOT LIKE '(x)%'", o).rows.map(_(0)) ==
      Vector("1", "2", "4"))
  }

  test("IN and NOT IN") {
    assert(run("SELECT id FROM S3Object WHERE name IN ('beta', 'gamma')").rows.size == 2)
    assert(run("SELECT id FROM S3Object WHERE id NOT IN (1, 2, 3)").rows.map(_(0)).toSet == Set("4", "5"))
  }

  test("AND, OR and NOT follow three-valued logic on NULL operands") {
    def ids(where: String) = run(s"SELECT id FROM S3Object WHERE $where").rows.map(_(0)).toSet
    // row 5 has a NULL price: the OR is NULL there, and so is its negation
    assert(ids("NOT (id < 120.0 * price OR id IN (0, 253, 0))") == Set.empty[String])
    assert(ids("NOT (price > 15 OR id = 1)") == Set.empty[String])
    assert(ids("NOT (price > 15 AND id > 0)") == Set("1"))
    // FALSE decides AND, TRUE decides OR, whatever the NULL side
    assert(ids("price > 15 OR id = 5") == Set("2", "3", "4", "5"))
    assert(ids("NOT (price > 15 AND id = 4)") == Set("1", "2", "3", "5"))
    assert(ids("(price > 15 AND id = 5) IS NULL") == Set("5"))
  }

  test("empty numeric cell is NULL: filtered by comparisons, caught by IS NULL") {
    assert(run("SELECT id FROM S3Object WHERE price > 0").rows.size == 4)
    assert(run("SELECT id FROM S3Object WHERE price IS NULL").rows.map(_(0)) == Vector("5"))
    assert(run("SELECT id FROM S3Object WHERE price IS NOT NULL").rows.size == 4)
  }

  test("arithmetic in projection") {
    val r = run("SELECT id * 2 + 1 FROM S3Object WHERE id = 3")
    assert(r.rows.head(0) == "7")
  }

  test("division always yields double") {
    assert(run("SELECT id / 2 FROM S3Object WHERE id = 3").rows.head(0) == "1.5")
  }

  test("modulo is integral") {
    assert(run("SELECT id % 3 FROM S3Object WHERE id = 5").rows.head(0) == "2")
  }

  test("CAST string to INT") {
    assert(run("SELECT CAST(price AS INT) FROM S3Object WHERE id = 3").rows.head(0) == "30")
  }

  test("SUBSTRING semantics are 1-based with clamping") {
    assert(run("SELECT SUBSTRING(name, 2, 3) FROM S3Object WHERE id = 1").rows.head(0) == "lph")
    assert(run("SELECT SUBSTRING(name, 40, 3) FROM S3Object WHERE id = 1").rows.head(0) == "")
  }

  test("bloom-filter style predicate evaluates") {
    // bit array '01' → positions ((3*id+0)%5)%2+1: id=1→ (3%5)%2=1 → pos 2='1'
    val r = run("SELECT id FROM S3Object WHERE SUBSTRING('01', ((3 * CAST(id AS INT) + 0) % 5) % 2 + 1, 1) = '1'")
    // id:1→3%5=3%2=1→pos2='1' pass; id:2→6%5=1%2=1→pass; id:3→9%5=4%2=0→pos1='0' fail
    assert(r.rows.map(_(0)).contains("1"))
    assert(!r.rows.map(_(0)).contains("3"))
  }

  test("LIMIT stops early and charges only scanned prefix") {
    val r = run("SELECT id FROM S3Object LIMIT 2")
    assert(r.rows.size == 2)
    assert(r.scannedBytes < data.sizeBytes)
    assert(r.scannedBytes == data.scanBytesUpTo(2))
  }

  test("LIMIT with filter scans until enough rows pass") {
    val r = run("SELECT id FROM S3Object WHERE id >= 3 LIMIT 1")
    assert(r.rows.map(_(0)) == Vector("3"))
    assert(r.scannedBytes == data.scanBytesUpTo(3))
  }

  test("aggregates return exactly one row") {
    val r = run("SELECT count(*), sum(id), min(price), max(price), avg(id) FROM S3Object")
    assert(r.rows.size == 1)
    assert(r.rows.head.toSeq == Seq("5", "15", "10.5", "40.0", "3.0"))
  }

  test("sum of long column stays integral; sum of double is double") {
    assert(run("SELECT sum(id) FROM S3Object").rows.head(0) == "15")
    assert(approx(run("SELECT sum(price) FROM S3Object").rows.head(0).toDouble, 100.75))
  }

  test("aggregate skips NULL cells (count and sum)") {
    val r = run("SELECT count(price), sum(price) FROM S3Object")
    assert(r.rows.head(0) == "4")
  }

  test("sum over empty set is NULL (empty cell)") {
    val r = run("SELECT sum(id) FROM S3Object WHERE id > 100")
    assert(r.rows.head(0) == "")
  }

  test("count over empty set is 0") {
    assert(run("SELECT count(*) FROM S3Object WHERE id > 100").rows.head(0) == "0")
  }

  test("aggregate with WHERE") {
    assert(run("SELECT sum(id) FROM S3Object WHERE price >= 20").rows.head(0) == "9")
  }

  test("aggregate of arithmetic expression") {
    val r = run("SELECT sum(price * 2) FROM S3Object WHERE id <= 2")
    assert(approx(r.rows.head(0).toDouble, 61.0))
  }

  test("arithmetic over aggregates in projection") {
    val r = run("SELECT 100 * sum(id) / count(*) FROM S3Object")
    assert(approx(r.rows.head(0).toDouble, 300.0))
  }

  test("CASE WHEN inside SUM implements grouped aggregation") {
    val r = run(
      "SELECT sum(CASE WHEN name LIKE 'alpha%' THEN price ELSE 0 END), " +
      "sum(CASE WHEN name = 'beta' THEN price ELSE 0 END) FROM S3Object")
    assert(approx(r.rows.head(0).toDouble, 50.5))
    assert(approx(r.rows.head(1).toDouble, 20.0))
  }

  test("exprFactor grows with CASE terms") {
    val r0 = run("SELECT sum(id) FROM S3Object")
    val r2 = run("SELECT sum(CASE WHEN id = 1 THEN 1 ELSE 0 END), sum(CASE WHEN id = 2 THEN 1 ELSE 0 END) FROM S3Object")
    assert(r0.exprFactor == 1.0)
    assert(approx(r2.exprFactor, 1.0 + 2 * Model.CaseCostPerTerm))
  }

  test("exprFactor grows with SUBSTRING probes in WHERE") {
    val r = run("SELECT id FROM S3Object WHERE SUBSTRING('11', 1, 1) = '1' AND SUBSTRING('11', 2, 1) = '1'")
    assert(approx(r.exprFactor, 1.0 + 2 * Model.BloomHashCost))
  }

  test("unknown column rejected") {
    assertThrows[EvalException](run("SELECT nope FROM S3Object"))
  }

  test("bare column in aggregate projection rejected (no GROUP BY)") {
    assertThrows[EvalException](run("SELECT id, sum(price) FROM S3Object"))
  }

  test("a query lowered for one schema and run on an object of another is lowered again") {
    val q = SelectParser.parse("SELECT name, price * 2 FROM S3Object WHERE id >= 3")
    val reordered = StructType(schema.fields.reverse)
    val o = new CsvObject("r/part-0000", reordered, data.rows.map(_.reverse))
    val lowered = SelectEngine.lower(q, schema)
    assert(lowered.run(o).rows.map(_.toSeq) == lowered.run(data).rows.map(_.toSeq))
    assert(lowered.run(data).rows.map(_.toSeq) == Vector(Seq("gamma", "60.5"), Seq("alphabet", "80.0"), Seq("empty", "")))
  }

  test("returned bytes equal CSV encoding of the result") {
    val r = run("SELECT id, name FROM S3Object WHERE id <= 2")
    val expected = r.rows.map(CsvCodec.rowBytes(_).toLong).sum
    assert(r.returnedBytes == expected)
  }

  // ------------------------------------------------------------- columnar
  private def colObj(compression: Double = 0.7): ColumnarObject =
    new ColumnarObject("t.parquet/part-0000", schema, data.rows, compression)

  test("columnar object yields same query results as CSV") {
    val o = colObj()
    val a = run("SELECT id FROM S3Object WHERE price > 15", o)
    val b = run("SELECT id FROM S3Object WHERE price > 15")
    assert(a.rows.map(_.toSeq) == b.rows.map(_.toSeq))
  }

  test("columnar scan charges only referenced columns") {
    val o = colObj()
    val one = run("SELECT id FROM S3Object", o)
    val all = run("SELECT * FROM S3Object", o)
    assert(one.scannedBytes < all.scannedBytes)
    assert(all.scannedBytes == o.sizeBytes)
  }

  test("columnar compression factor shrinks scanned bytes") {
    val c07 = run("SELECT id FROM S3Object", colObj(0.7)).scannedBytes
    val c10 = run("SELECT id FROM S3Object", colObj(1.0)).scannedBytes
    assert(math.abs(c07 - math.round(c10 * 0.7)) <= 1)
  }

  test("columnar responses are still CSV-sized (paper: S3 Select returns CSV)") {
    val a = run("SELECT id, name FROM S3Object", colObj())
    val b = run("SELECT id, name FROM S3Object")
    assert(a.returnedBytes == b.returnedBytes)
  }

  private def approx(a: Double, b: Double, eps: Double = 1e-9): Boolean = math.abs(a - b) <= eps
}
