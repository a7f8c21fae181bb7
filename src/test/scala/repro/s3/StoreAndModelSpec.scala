package repro.s3

import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

class CsvCodecSpec extends AnyFunSuite {

  test("encode/decode round-trip") {
    val rows = Seq(Array("1", "a b", "2.5"), Array("2", "", "3.0"))
    val enc = CsvCodec.encode(rows)
    assert(CsvCodec.decode(enc.bytes).map(_.toSeq).toSeq == rows.map(_.toSeq))
  }

  test("offsets and lengths address exact row bytes") {
    val rows = Seq(Array("10", "xx"), Array("2", "y"), Array("333", "zzz"))
    val enc = CsvCodec.encode(rows)
    rows.indices.foreach { i =>
      val slice = new String(enc.bytes, enc.offsets(i).toInt, enc.lengths(i)).stripLineEnd
      assert(CsvCodec.decodeLine(slice).toSeq == rows(i).toSeq)
    }
  }

  test("offsets are contiguous and cover the object") {
    val rows = Seq(Array("1"), Array("22"), Array("333"))
    val enc = CsvCodec.encode(rows)
    assert(enc.offsets(0) == 0)
    rows.indices.dropRight(1).foreach { i =>
      assert(enc.offsets(i) + enc.lengths(i) == enc.offsets(i + 1))
    }
    assert(enc.offsets.last + enc.lengths.last == enc.bytes.length)
  }

  test("cells needing quoting are rejected") {
    assertThrows[IllegalArgumentException](CsvCodec.encode(Seq(Array("a,b"))))
    assertThrows[IllegalArgumentException](CsvCodec.encode(Seq(Array("a\nb"))))
  }

  test("null cells encode as empty") {
    val enc = CsvCodec.encode(Seq(Array("1", null, "3")))
    assert(CsvCodec.decode(enc.bytes).head.toSeq == Seq("1", "", "3"))
  }

  test("rowBytes matches encoded size") {
    val row = Array("12", "abc", "")
    val enc = CsvCodec.encode(Seq(row))
    assert(CsvCodec.rowBytes(row) == enc.bytes.length)
  }

  test("trailing empty cells survive decode") {
    val enc = CsvCodec.encode(Seq(Array("1", "")))
    assert(CsvCodec.decode(enc.bytes).head.length == 2)
  }

  test("a one-column row with an empty cell survives decode") {
    val rows = Seq(Array("a"), Array(""), Array("b"))
    val enc = CsvCodec.encode(rows)
    assert(CsvCodec.decode(enc.bytes).map(_.toSeq).toSeq == rows.map(_.toSeq))
  }

  test("rowBytes, offsets and lengths count UTF-8 bytes") {
    val rows = Seq(Array("é", "1"), Array("x", "€"), Array("\ud83d\ude00"))
    val enc = CsvCodec.encode(rows)
    assert(CsvCodec.rowBytes(rows.head) == CsvCodec.encode(Seq(rows.head)).bytes.length)
    assert(enc.lengths.toSeq == rows.map(CsvCodec.rowBytes))
    assert(enc.lengths.toSeq == Seq(5, 6, 5))
    assert(enc.offsets.last + enc.lengths.last == enc.bytes.length)
  }
}

class S3StoreSpec extends AnyFunSuite {
  private val schema = StructType(Seq(StructField("k", LongType), StructField("v", StringType)))
  private def rows(n: Int) = Array.tabulate(n)(i => Array(i.toString, s"v$i"))

  test("putCsvTable shards round the table") {
    val store = new S3Store
    val keys = S3Store.putCsvTable(store, "b", "t", schema, rows(10), 4)
    assert(keys.size == 4)
    assert(keys.map(store.get("b", _).numRows).sum == 10)
  }

  test("a one-column table with NULL cells decodes to numRows rows") {
    val store = new S3Store
    val oneCol = StructType(Seq(StructField("v", StringType)))
    val keys = S3Store.putCsvTable(store, "b", "t", oneCol,
      Array.tabulate(10)(i => Array(if (i % 3 == 0) null else s"v$i")), 2)
    keys.foreach { k =>
      val obj = store.get("b", k)
      assert(obj.rows.length == obj.numRows)
      assert(SelectEngine.run(obj, SelectParser.parse("SELECT count(*) FROM S3Object"))
        .rows.head.head.toInt == obj.numRows)
    }
  }

  test("list returns sorted shard keys by prefix") {
    val store = new S3Store
    S3Store.putCsvTable(store, "b", "t", schema, rows(4), 2)
    S3Store.putCsvTable(store, "b", "t2", schema, rows(4), 2)
    assert(store.list("b", "t/") == Seq("t/part-0000", "t/part-0001"))
  }

  test("get on missing object throws") {
    assertThrows[NoSuchElementException](new S3Store().get("b", "missing"))
  }

  test("drop removes a prefix") {
    val store = new S3Store
    S3Store.putCsvTable(store, "b", "t", schema, rows(4), 2)
    store.drop("b", "t/")
    assert(store.list("b", "t/").isEmpty)
  }

  test("re-register replaces shards") {
    val store = new S3Store
    S3Store.putCsvTable(store, "b", "t", schema, rows(8), 8)
    S3Store.putCsvTable(store, "b", "t", schema, rows(4), 2)
    assert(store.list("b", "t/").size == 2)
  }

  test("totalBytes sums shard sizes") {
    val store = new S3Store
    val keys = S3Store.putCsvTable(store, "b", "t", schema, rows(10), 3)
    assert(store.totalBytes("b", "t/") == keys.map(store.get("b", _).sizeBytes).sum)
  }

  test("range GET returns the addressed record") {
    val store = new S3Store
    S3Store.putCsvTable(store, "b", "t", schema, rows(6), 2)
    val obj = store.get("b", "t/part-0000").asInstanceOf[CsvObject]
    val line = obj.range(obj.rowOffsets(1), obj.rowLengths(1))
    assert(new String(line).stripLineEnd == "1,v1")
  }

  test("range GET of the record after a non-ASCII record returns that record") {
    val store = new S3Store
    S3Store.putCsvTable(store, "b", "t", schema, Array(Array("0", "é"), Array("1", "v1")), 1)
    val obj = store.get("b", "t/part-0000").asInstanceOf[CsvObject]
    assert(new String(obj.range(obj.rowOffsets(1), obj.rowLengths(1)), "UTF-8") == "1,v1\n")
    assert(new S3Client(store, "b").getRange("t/part-0000", obj.rowOffsets(1), obj.rowLengths(1))
      .toSeq == Seq("1", "v1"))
    assert(obj.sizeBytes == "0,é\n1,v1\n".getBytes("UTF-8").length)
  }

  test("range GETs reject ranges that are not one whole record") {
    val store = new S3Store
    S3Store.putCsvTable(store, "b", "t", schema, rows(4), 3)
    val obj = store.get("b", "t/part-0000").asInstanceOf[CsvObject]
    val empty = store.get("b", "t/part-0002").asInstanceOf[CsvObject]
    val (off, len) = (obj.rowOffsets(1), obj.rowLengths(1))
    assertThrows[IllegalArgumentException](obj.range(off + 1, len))     // starts mid-record
    assertThrows[IllegalArgumentException](obj.range(off, len - 1))     // ends mid-record
    assertThrows[IllegalArgumentException](obj.range(off, len + 1))     // spans two records
    assertThrows[IllegalArgumentException](obj.range(obj.sizeBytes, 4)) // past the end
    assertThrows[IllegalArgumentException](empty.range(0, 1))
  }

  test("a CSV object rejects cells that need quoting") {
    assertThrows[IllegalArgumentException](new CsvObject("x", schema, Array(Array("1", "a,b"))))
    assertThrows[IllegalArgumentException](new CsvObject("x", schema, Array(Array("1", "a\"b"))))
  }

  /** 3 rows in 8 shards, as CSV and as Parquet-lite: the last 5 objects of each are empty. */
  private def tablesWithEmptyShards(store: S3Store): Seq[String] = {
    S3Store.putCsvTable(store, "b", "csv", schema, rows(3), 8)
    S3Store.putColumnarTable(store, "b", "col", schema, rows(3), 8)
    Seq("csv", "col")
  }

  test("empty shards have no rows or bytes, and scans and aggregates over them return nothing") {
    val store = new S3Store
    tablesWithEmptyShards(store).foreach { t =>
      val empty = store.list("b", t + "/").map(store.get("b", _)).filter(_.numRows == 0)
      assert(empty.size == 5, t)
      empty.foreach { obj =>
        assert(obj.sizeBytes == 0, t)
        val scan = SelectEngine.run(obj, SelectParser.parse("SELECT * FROM S3Object"))
        assert(scan.rows.isEmpty && scan.scannedBytes == 0 && scan.returnedBytes == 0, t)
        val agg = SelectEngine.run(obj, SelectParser.parse("SELECT count(*), sum(k) FROM S3Object"))
        assert(agg.rows.map(_.toSeq) == Vector(Seq("0", "")), t)
      }
    }
  }

  test("a LIMIT select over empty and non-empty shards charges only the shards it reached") {
    val store = new S3Store
    val client = new S3Client(store, "b")
    tablesWithEmptyShards(store).foreach { t =>
      val objs = store.list("b", t + "/").map(store.get("b", _))
      def limited(n: Int): (Vector[String], PhaseView) = {
        Sim.reset()
        val out = Sim.inPhase("p") { client.select(t, s"SELECT k FROM S3Object LIMIT $n") }
        (out.map(_.head), Sim.get("p"))
      }
      def scanned(os: Seq[StoredObject]) = os.map(_.scanBytes(Some(Set("k")))).sum
      val (two, v2) = limited(2)
      assert(two == Vector("0", "1"), t)
      assert(v2.selectRequests == 2 && v2.scannedBytes == scanned(objs.take(2)), t)
      val (all, v5) = limited(5)
      assert(all == Vector("0", "1", "2"), t)
      assert(v5.selectRequests == 8 && v5.scannedBytes == scanned(objs), t)
    }
  }

  test("columnar table preserves rows") {
    val store = new S3Store
    S3Store.putColumnarTable(store, "b", "t.parquet", schema, rows(10), 2)
    val objs = store.list("b", "t.parquet/").map(store.get("b", _))
    assert(objs.map(_.numRows).sum == 10)
    assert(objs.head.rows.head.toSeq == Seq("0", "v0"))
  }
}

class ModelSpec extends AnyFunSuite {

  private def phase(scanned: Long = 0, returned: Long = 0, selects: Long = 0,
                    gets: Long = 0, local: Double = 0, parsed: Long = 0,
                    factor: Double = 1.0) =
    PhaseView("p", scanned, returned, selects, gets, local, parsed, factor)

  test("scan-bound phase time") {
    val t = RuntimeModel.phaseSeconds(phase(scanned = 3_500_000_000L, selects = 1))
    assert(math.abs(t - (1.0 + Model.SelectLatency)) < 1e-9)
  }

  test("exprFactor multiplies scan time") {
    val a = RuntimeModel.phaseSeconds(phase(scanned = 3_500_000_000L, factor = 2.0))
    val b = RuntimeModel.phaseSeconds(phase(scanned = 3_500_000_000L))
    assert(math.abs(a - 2 * b) < 1e-9)
  }

  test("network-bound phase time") {
    val t = RuntimeModel.phaseSeconds(phase(returned = 1_000_000_000L))
    assert(math.abs(t - 1.0) < 1e-9)
  }

  test("server-parse-bound phase time") {
    val t = RuntimeModel.phaseSeconds(phase(parsed = 350_000_000L))
    assert(math.abs(t - 1.0) < 1e-9)
  }

  test("pipelined stages take the max, not the sum") {
    val t = RuntimeModel.phaseSeconds(phase(scanned = 3_500_000_000L, returned = 500_000_000L))
    assert(math.abs(t - 1.0) < 1e-9)
  }

  test("local work adds to the server stage") {
    val t = RuntimeModel.phaseSeconds(phase(parsed = 350_000_000L, local = 0.5))
    assert(math.abs(t - 1.5) < 1e-9)
  }

  test("GET requests cost CPU time divided by parallelism") {
    val t = RuntimeModel.phaseSeconds(phase(gets = 3200))
    assert(math.abs(t - 3200 * Model.GetRequestCpu / Model.RequestParallelism) < 1e-9)
  }

  test("scale multiplies byte- and row-derived terms") {
    val p = phase(scanned = 35_000_000L, selects = 1)
    val t1 = RuntimeModel.phaseSeconds(p, 1.0)
    val t100 = RuntimeModel.phaseSeconds(p, 100.0)
    assert(math.abs((t100 - Model.SelectLatency) - 100 * (t1 - Model.SelectLatency)) < 1e-9)
  }

  test("cost: scan charged at $0.002/GB, return at $0.0007/GB") {
    val c = RuntimeModel.cost(Seq(phase(scanned = 1_000_000_000L, returned = 1_000_000_000L, selects = 1)), 0.0)
    assert(math.abs(c.scan - 0.002) < 1e-9)
    assert(math.abs(c.transfer - 0.0007) < 1e-9)
  }

  test("cost: plain GET bytes are free (in-region), only request fee") {
    val c = RuntimeModel.cost(Seq(phase(returned = 1_000_000_000L, gets = 1000)), 0.0)
    assert(c.scan == 0.0 && c.transfer == 0.0)
    assert(math.abs(c.request - Model.GetDollarsPer1000) < 1e-9)
  }

  test("cost: compute from EC2 hourly price") {
    val c = RuntimeModel.cost(Nil, 3600.0)
    assert(math.abs(c.compute - Model.Ec2DollarsPerHour) < 1e-9)
  }

  test("cost breakdown sums to total") {
    val c = CostBreakdown(1, 2, 3, 4)
    assert(c.total == 10.0)
    assert((c + c).total == 20.0)
  }

  test("paper anchor: 10GB server-side vs s3-side filter ratio near 10x") {
    // server: GET 10GB, parse all; s3: scan 10GB, return ~nothing
    val server = RuntimeModel.phaseSeconds(phase(returned = 10_000_000_000L, gets = 8, parsed = 10_000_000_000L))
    val s3 = RuntimeModel.phaseSeconds(phase(scanned = 10_000_000_000L, selects = 8))
    val ratio = server / s3
    assert(ratio > 7 && ratio < 13, s"ratio $ratio")
  }

  test("paper anchor: s3-side filter modestly more expensive") {
    val serverT = RuntimeModel.phaseSeconds(phase(returned = 10_000_000_000L, gets = 8, parsed = 10_000_000_000L))
    val s3T = RuntimeModel.phaseSeconds(phase(scanned = 10_000_000_000L, selects = 8))
    val serverC = RuntimeModel.cost(Seq(phase(returned = 10_000_000_000L, gets = 8)), serverT).total
    val s3C = RuntimeModel.cost(Seq(phase(scanned = 10_000_000_000L, selects = 8)), s3T).total
    val ratio = s3C / serverC
    assert(ratio > 1.0 && ratio < 2.0, s"cost ratio $ratio")
  }
}

class SimSpec extends AnyFunSuite {

  test("phases accumulate and snapshot") {
    Sim.reset()
    Sim.inPhase("x") {
      Sim.currentPhase.recordSelect(100, 10, 1.5)
      Sim.currentPhase.recordGet(7)
    }
    val v = Sim.get("x")
    assert(v.scannedBytes == 100 && v.returnedBytes == 17)
    assert(v.selectRequests == 1 && v.getRequests == 1)
    assert(v.exprFactor == 1.5)
  }

  test("exprFactor keeps the max") {
    Sim.reset()
    Sim.inPhase("x") {
      Sim.currentPhase.recordSelect(1, 1, 2.0)
      Sim.currentPhase.recordSelect(1, 1, 1.2)
    }
    assert(Sim.get("x").exprFactor == 2.0)
  }

  test("nested phases restore the outer phase") {
    Sim.reset()
    Sim.inPhase("outer") {
      Sim.inPhase("inner") { Sim.currentPhase.recordGet(5) }
      Sim.currentPhase.recordGet(3)
    }
    assert(Sim.get("inner").returnedBytes == 5)
    assert(Sim.get("outer").returnedBytes == 3)
  }

  test("reset clears phases") {
    Sim.inPhase("y") { Sim.currentPhase.recordGet(1) }
    Sim.reset()
    assert(Sim.get("y").returnedBytes == 0)
    assert(Sim.snapshot().isEmpty)
  }

  test("local work accumulates seconds") {
    Sim.reset()
    Sim.phase("z").localWork(1000, 1e-3)
    Sim.phase("z").localParse(500)
    val v = Sim.get("z")
    assert(math.abs(v.localSeconds - 1.0) < 1e-9)
    assert(v.localParsedBytes == 500)
  }
}
