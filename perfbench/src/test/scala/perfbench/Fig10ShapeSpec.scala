package perfbench

import org.scalatest.funsuite.AnyFunSuite

/** The `server` and `pushdown` workloads are the two Fig-10 columns. Their
  * modeled geo-means must keep the shape `Fig10TpchBench` asserts at SF 0.1,
  * and the ratio of the two workloads' `modeled_s_geomean` must be Fig 10's
  * geo-mean speedup.
  */
class Fig10ShapeSpec extends AnyFunSuite {

  test("server/pushdown modeled geo-means keep the Fig-10 shape at SF 0.01") {
    val data = Workloads.data(seed = 1)
    val setup = Bench.setupOnce("pushdown", data, new Spans)
    val spark = setup.spark
    try {
      def modeled(ops: Seq[Op]) = ops.filter(_.fig10).map(op => op.name -> op.exec().result).toMap
      val base = modeled(Workloads.server(spark, data.sf))
      val opt = modeled(Workloads.pushdown(spark, data.sf))
      val shape = Fig10Shape(base, opt)
      info(f"SF ${data.sf}: geo-mean speedup ${shape.speedup}%.2fx, cost ratio ${shape.costRatio}%.2f")
      assert(shape.plans == 10)
      assert(shape.speedup > 3.0, f"geo-mean speedup only ${shape.speedup}%.2f")
      assert(shape.costRatio < 1.1, f"optimized costs ${shape.costRatio}%.2fx of baseline")

      val ratio = Stats.geomean(base.values.map(_.runtimeSeconds).toSeq) /
        Stats.geomean(opt.values.map(_.runtimeSeconds).toSeq)
      assert(math.abs(ratio / shape.speedup - 1) < 1e-9)
    } finally spark.stop()
  }
}
