package repro.jobs

import org.apache.spark.sql.types._
import repro.core.BloomFilter
import repro.experiments.TableFmt
import repro.s3.{CsvObject, SelectEngine, SelectParser}
import repro.tpch.Tpch

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._

/** Wall-clock of the S3 Select engine per scanned row, for the four query
  * shapes whose S3-side cost the paper models: a selective filter, a 7-hash
  * Bloom probe (§V-A2), optimized Q1's 30-term CASE aggregation (§VI-A)
  * and a Q6 aggregate.
  *
  * {{{
  * sbt "runMain repro.jobs.EngineProbe [reps=5] [out=BENCH_engine.json] [label=current]"
  * }}}
  *
  * The rows are generated in the JVM from a fixed seed (60,000 lineitem-like
  * rows in 8 CSV objects, about SF 0.01), so no Spark session is started.
  * Each shape runs `SelectEngine.run` over every object: 3 warm-up passes,
  * then `reps` timed passes. Prints one table and stores the run in `out`
  * under `label`, keeping the runs of other labels already there (one run
  * per line), so one file can hold a parent's and a change's run.
  */
object EngineProbe {

  private val Objects = 8
  private val RowsPerObject = 7500
  private val WarmupPasses = 3

  private val schema = StructType(Seq(
    StructField("l_orderkey", LongType), StructField("l_partkey", LongType),
    StructField("l_linenumber", IntegerType), StructField("l_quantity", DoubleType),
    StructField("l_extendedprice", DoubleType), StructField("l_discount", DoubleType),
    StructField("l_tax", DoubleType), StructField("l_returnflag", StringType),
    StructField("l_linestatus", StringType), StructField("l_shipdate", DateType)))

  private def lineitem(): Seq[CsvObject] = {
    val rnd = new scala.util.Random(1)
    def cents(x: Int): String = s"${x / 100}.${if (x % 100 < 10) "0" else ""}${x % 100}"
    val day0 = java.time.LocalDate.parse("1992-01-01")
    (0 until Objects).map { o =>
      val rows = Array.fill(RowsPerObject) {
        val ship = day0.plusDays(rnd.nextInt(2500).toLong).toString
        Array(
          (1 + rnd.nextInt(15000)).toString, (1 + rnd.nextInt(2000)).toString,
          (1 + rnd.nextInt(7)).toString, s"${1 + rnd.nextInt(50)}.0",
          cents(90000 + rnd.nextInt(9000000)), cents(rnd.nextInt(11)), cents(rnd.nextInt(9)),
          if (ship > "1995-06-17") "N" else if (rnd.nextBoolean()) "A" else "R",
          if (ship > "1995-06-17") "O" else "F", ship)
      }
      new CsvObject(f"lineitem/part-$o%04d", schema, rows)
    }
  }

  private def shapes: Seq[(String, String)] = {
    val bloom = BloomFilter.build((1L to 2000L by 97L), 0.01, seed = 42)
    require(bloom.k == 7)
    val groups = for (f <- Seq("A", "N", "R"); s <- Seq("F", "O")) yield (f, s)
    Seq(
      "filter" -> "SELECT * FROM S3Object WHERE l_extendedprice <= 990.0",
      "bloom"  -> s"SELECT l_partkey, l_quantity, l_extendedprice FROM S3Object WHERE ${bloom.toSqlPredicate("l_partkey")}",
      "case"   -> Tpch.q1CaseSql(groups),
      "q6"     -> ("SELECT sum(l_extendedprice * l_discount) FROM S3Object WHERE l_shipdate >= '1994-01-01' " +
                   "AND l_shipdate < '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"))
  }

  def main(args: Array[String]): Unit = {
    val reps = args.headOption.map(_.toInt).getOrElse(5)
    val out = Paths.get(args.lift(1).getOrElse("BENCH_engine.json"))
    val label = args.lift(2).getOrElse("current")
    val objects = lineitem()
    val rows = objects.map(_.numRows).sum

    val results = shapes.map { case (shape, sql) =>
      val q = SelectParser.parse(sql)
      def pass(): Double = {
        val t0 = System.nanoTime()
        objects.foreach(SelectEngine.run(_, q))
        (System.nanoTime() - t0).toDouble / rows
      }
      (1 to WarmupPasses).foreach(_ => pass())
      shape -> (1 to reps).map(_ => pass()).sorted
    }

    println(TableFmt.render(s"S3 Select engine, ns per row ($rows rows, $reps passes, $label)",
      Seq("shape", "median", "min", "max"),
      results.map { case (s, ns) => Seq(s, num(median(ns)), num(ns.head), num(ns.last)) }))

    val shapesJson = results.map { case (s, ns) =>
      s""""$s": {"ns_per_row_p50": ${num(median(ns))}, "passes": [${ns.map(num).mkString(", ")}]}"""
    }
    val run = s""""$label": {"rows": $rows, "objects": $Objects, "reps": $reps, """ +
      s""""cores": ${Runtime.getRuntime.availableProcessors}, ${shapesJson.mkString(", ")}}"""
    val kept = previousRuns(out).filterNot(_._1 == label).map(_._2)
    Files.writeString(out, (kept :+ run).mkString("{\n", ",\n", "\n}\n"))
    println(s"wrote $out")
  }

  private def num(x: Double): String = "%.1f".formatLocal(java.util.Locale.ROOT, x)

  private def median(sorted: Seq[Double]): Double =
    if (sorted.size % 2 == 1) sorted(sorted.size / 2)
    else (sorted(sorted.size / 2 - 1) + sorted(sorted.size / 2)) / 2

  /** (label, line) of each run already in `out`. */
  private def previousRuns(out: Path): Seq[(String, String)] =
    if (!Files.exists(out)) Nil
    else Files.readAllLines(out).asScala.toSeq.collect {
      case line if line.startsWith("\"") => line.drop(1).takeWhile(_ != '"') -> line.stripSuffix(",")
    }
}
