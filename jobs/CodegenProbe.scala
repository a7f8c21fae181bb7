package repro.jobs

import org.apache.spark.metrics.source.CodegenMetrics
import repro.experiments.{Figures, TableFmt}

import java.nio.file.{Files, Paths}

/** How much Spark code generation each Fig-10 plan repeats: runs the
  * baseline column (the server plans) for `passes` passes, then the
  * optimized column, and counts the Janino compiles of every plan run,
  * collecting its result included.
  *
  * {{{
  * sbt "runMain repro.jobs.CodegenProbe [passes=3] [sf=0.01] [out=BENCH_codegen.json]"
  * }}}
  *
  * A compile is one sample of `CodegenMetrics.METRIC_COMPILATION_TIME`. In
  * local mode the driver and the executor tasks share the JVM, so the count
  * covers both. Spark caches compiled classes (a bounded LRU keyed by class
  * loader and source), so after the first pass a compile means the cache
  * no longer held that class. Prints one table per column and writes every
  * count, with each plan's wall-clock, as JSON.
  */
object CodegenProbe {

  final case class Run(plan: String, pass: Int, compiles: Long, ms: Double)

  def main(args: Array[String]): Unit = {
    val passes = args.headOption.map(_.toInt).getOrElse(3)
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.01)
    val out = args.lift(2).getOrElse("BENCH_codegen.json")
    val spark = JobUtil.session("codegen-probe")
    spark.sparkContext.setLogLevel("WARN")
    val plans = Figures.fig10Plans(spark, sf)
    val columns = Seq(
      "server"   -> plans.map { case (name, base, _) => name -> base },
      "pushdown" -> plans.map { case (name, _, opt) => name -> opt })

    val runs = columns.map { case (column, ops) =>
      column -> (1 to passes).flatMap { pass =>
        ops.map { case (name, run) =>
          val compiles = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
          val t0 = System.nanoTime()
          run().df.collect()
          Run(name, pass, CodegenMetrics.METRIC_COMPILATION_TIME.getCount - compiles,
            (System.nanoTime() - t0) / 1e6)
        }
      }
    }

    def perPass(rs: Seq[Run]): Seq[Long] = (1 to passes).map(p => rs.filter(_.pass == p).map(_.compiles).sum)

    runs.foreach { case (column, rs) =>
      val header = "plan" +: (1 to passes).map(p => s"pass $p")
      val rows = plans.map { case (plan, _, _) =>
        plan +: rs.filter(_.plan == plan).map(_.compiles.toString) // in pass order
      }
      val total = "total" +: perPass(rs).map(_.toString)
      println(TableFmt.render(s"Janino compiles per $column plan per pass, SF $sf", header, rows :+ total))
    }

    val json = runs.map { case (column, rs) =>
      val runJson = rs.map(r =>
        f"""{"plan": "${r.plan}", "pass": ${r.pass}, "compiles": ${r.compiles}, "ms": ${r.ms}%.1f}""")
      s""""$column": {"compiles_per_pass": [${perPass(rs).mkString(", ")}],
         |    "runs": [
         |      ${runJson.mkString(",\n      ")}]}""".stripMargin
    }
    Files.writeString(Paths.get(out),
      s"""{"sf": $sf, "passes": $passes, "cores": ${Runtime.getRuntime.availableProcessors},
         |  "spark": "${spark.version}",
         |  ${json.mkString(",\n  ")}}
         |""".stripMargin)
    println(s"wrote $out")
    spark.stop()
  }
}
