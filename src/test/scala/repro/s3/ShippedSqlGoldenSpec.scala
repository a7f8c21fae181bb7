package repro.s3

import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.BloomFilter
import repro.tpch.Tpch

/** Golden results of the S3 Select SQL the benchmark ships, on a fixed
  * lineitem-like object built here (not by `SynthData`, whose output depends
  * on the core count): Q1's 30-term CASE aggregation, a 7-hash Bloom probe,
  * a Q6-style aggregate and a filter with LIMIT, each over a CSV and a
  * columnar object. Rows, scanned and returned bytes and `exprFactor` are
  * pinned to the values of the tree-walking evaluator the engine replaced.
  */
class ShippedSqlGoldenSpec extends AnyFunSuite {

  private val schema = StructType(Seq(
    StructField("l_orderkey", LongType),
    StructField("l_partkey", LongType),
    StructField("l_quantity", DoubleType),
    StructField("l_extendedprice", DoubleType),
    StructField("l_discount", DoubleType),
    StructField("l_tax", DoubleType),
    StructField("l_returnflag", StringType),
    StructField("l_linestatus", StringType),
    StructField("l_shipdate", DateType),
  ))

  /** 48 rows from integer formulas only: the same text on every host. */
  private val rows: Array[Array[String]] = Array.tabulate(48) { i =>
    val cents = 90000 + (i * 153117) % 9000000
    val c = cents % 100
    Array(
      (1000 + 7 * i).toString,
      (1 + (37 * i) % 200).toString,
      s"${1 + (13 * i) % 50}.0",
      s"${cents / 100}.${if (c < 10) "0" else ""}$c",
      s"0.0${i % 10}",
      s"0.0${(3 * i) % 9}",
      "ANR".charAt(i % 3).toString,
      if ((i / 3) % 2 == 0) "F" else "O",
      if (i % 11 == 5) "" else s"199${2 + i % 7}-0${1 + i % 9}-1${i % 10}",
    )
  }

  private val objects = Seq(
    "csv"      -> new CsvObject("golden/part-0000", schema, rows),
    "columnar" -> new ColumnarObject("golden.parquet/part-0000", schema, rows, 0.7))

  private val groups = for (f <- Seq("A", "N", "R"); s <- Seq("F", "O")) yield (f, s)

  private val bloom = BloomFilter.build((1L to 200L by 3L), 0.01, seed = 42)

  private val queries = Seq(
    "q1"     -> Tpch.q1CaseSql(groups),
    "bloom"  -> s"SELECT l_orderkey, l_partkey FROM S3Object WHERE ${bloom.toSqlPredicate("l_partkey")}",
    "q6"     -> ("SELECT sum(l_extendedprice * l_discount) FROM S3Object WHERE l_shipdate >= '1994-01-01' " +
                 "AND l_shipdate < '1995-01-01' AND l_discount BETWEEN 0.03 AND 0.07 AND l_quantity < 35"),
    "filter" -> "SELECT l_orderkey, l_extendedprice FROM S3Object WHERE l_extendedprice > 30000 LIMIT 5",
  )

  private def actual: Seq[String] = for ((qn, sql) <- queries; (on, obj) <- objects) yield {
    val r = SelectEngine.run(obj, SelectParser.parse(sql))
    s"$qn.$on rows=${r.rows.map(_.mkString(",")).mkString(";")} scanned=${r.scannedBytes} " +
      s"returned=${r.returnedBytes} factor=${r.exprFactor}"
  }

  test("the fixture's queries are the shapes the benchmark ships") {
    assert(bloom.k == 7)
    assert(SelectAst.caseTermCount(SelectParser.parse(queries.head._2)) == 30)
  }

  test("results and byte counts match the pinned values") {
    val got = actual
    assert(got == Golden, got.mkString("\n"))
  }

  /** Recorded with the tree-walking evaluator, before the engine lowered
    * queries.
    */
  private val Golden = Seq[String](
    "q1.csv rows=192.0,264436.56,254997.54,254997.54,8,202.0,258943.05,245444.67629999996," +
      "245444.67629999996,7,196.0,276685.92000000004,264051.31320000003,271972.85259599995,8," +
      "199.0,288035.28,277162.3368,285477.20690399996,7,155.0,229850.82,221654.73599999998," +
      "234954.02016000001,7,196.0,317127.51,301442.2515,319528.78659000003,7 scanned=2221 " +
      "returned=313 factor=2.8",
    "q1.columnar rows=192.0,264436.56,254997.54,254997.54,8,202.0,258943.05," +
      "245444.67629999996,245444.67629999996,7,196.0,276685.92000000004,264051.31320000003," +
      "271972.85259599995,8,199.0,288035.28,277162.3368,285477.20690399996,7,155.0,229850.82," +
      "221654.73599999998,234954.02016000001,7,196.0,317127.51,301442.2515,319528.78659000003," +
      "7 scanned=1271 returned=313 factor=2.8",
    "bloom.csv rows=1000,1;1021,112;1056,97;1091,82;1112,193;1126,67;1147,178;1161,52;1182," +
      "163;1196,37;1217,148;1231,22;1252,133;1266,7;1287,118;1322,103 scanned=2221 " +
      "returned=134 factor=3.1",
    "bloom.columnar rows=1000,1;1021,112;1056,97;1091,82;1112,193;1126,67;1147,178;1161,52;" +
      "1182,163;1196,37;1217,148;1231,22;1252,133;1266,7;1287,118;1322,103 scanned=284 " +
      "returned=134 factor=3.1",
    "q6.csv rows=6759.5895 scanned=2221 returned=10 factor=1.0",
    "q6.columnar rows=6759.5895 scanned=969 returned=10 factor=1.0",
    "filter.csv rows=1140,31523.40;1147,33054.57;1154,34585.74;1161,36116.91;1168,37648.08 " +
      "scanned=1152 returned=70 factor=1.0",
    "filter.columnar rows=1140,31523.40;1147,33054.57;1154,34585.74;1161,36116.91;1168," +
      "37648.08 scanned=465 returned=70 factor=1.0",
  )
}
