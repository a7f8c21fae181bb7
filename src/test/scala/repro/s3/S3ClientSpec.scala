package repro.s3

import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

/** `S3Client.select` sends the per-object requests of a query in parallel;
  * its rows and metrics must be those of sending them one after another.
  */
class S3ClientSpec extends AnyFunSuite {

  private val schema = StructType(Seq(
    StructField("id", LongType), StructField("price", DoubleType), StructField("name", StringType)))

  private val store = new S3Store
  private val keys = S3Store.putCsvTable(store, "b", "t", schema,
    Array.tabulate(1000)(i => Array(i.toString, f"${(i * 37 % 101) * 1.25}%.2f", s"n${i % 7}")), 16)
  private val client = new S3Client(store, "b")

  /** Rows and the phase's metrics of `body`, run in a fresh phase. */
  private def metered(body: => Vector[Array[String]]): (Vector[Seq[String]], PhaseView) = {
    Sim.reset()
    val rows = Sim.inPhase("p") { body }
    (rows.map(_.toSeq), Sim.get("p"))
  }

  private def sequential(sql: String): Vector[Array[String]] = {
    val q = SelectParser.parse(sql)
    keys.toVector.flatMap { k =>
      val res = SelectEngine.run(store.get("b", k), q)
      Sim.currentPhase.recordSelect(res.scannedBytes, res.returnedBytes, res.exprFactor)
      Sim.currentPhase.localParse(res.returnedBytes)
      res.rows
    }
  }

  test("parallel requests return the sequential rows, in key order, with the same metrics") {
    Seq(
      "SELECT id, name FROM S3Object WHERE price > 60",
      "SELECT * FROM S3Object",
      "SELECT sum(CASE WHEN name = 'n1' THEN price ELSE 0 END), count(*) FROM S3Object WHERE id < 500",
      "SELECT id FROM S3Object WHERE SUBSTRING('0110100110', (id % 10) + 1, 1) = '1'",
    ).foreach { sql =>
      val (par, pv) = metered(client.select("t", sql))
      val (seq, sv) = metered(sequential(sql))
      assert(par == seq, sql)
      assert(pv == sv, sql)
      assert(pv.selectRequests == keys.size)
    }
  }

  test("a failing request fails the select with its own exception") {
    assertThrows[EvalException](client.select("t", "SELECT missing FROM S3Object"))
  }

  test("a LIMIT select stops early and charges scanned bytes only up to the limit") {
    val (rows, v) = metered(client.select("t", "SELECT id FROM S3Object LIMIT 100"))
    assert(rows.map(_.head) == (0 until 100).map(_.toString))
    val perObject = store.get("b", keys.head).numRows // 63 rows in each of the first objects
    val first = store.get("b", keys(0)).asInstanceOf[CsvObject]
    val second = store.get("b", keys(1)).asInstanceOf[CsvObject]
    assert(v.selectRequests == 2)
    assert(v.scannedBytes == first.sizeBytes + second.scanBytesUpTo(100 - perObject))
    assert(v.scannedBytes < store.totalBytes("b", "t/"))
  }
}
