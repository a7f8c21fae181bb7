package repro.s3

import java.sql.DriverManager
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Properties}
import repro.s3.SelectAst._
import repro.s3.datasource.SqlRender

/** Property tests: randomly generated S3 Select queries must produce the
  * same rows on our storage engine as DuckDB does on an identically-typed
  * table — the storage engine gets its own oracle, independent of Spark.
  */
object SelectEngineProps extends Properties("SelectEngine") {

  private val schema = StructType(Seq(
    StructField("id", LongType),
    StructField("price", DoubleType),
    StructField("name", StringType),
  ))

  private val names = Vector("alpha", "beta", "gamma", "delta", "PROMO X", "PROMO Y", "misc")

  private val rows: Seq[Array[String]] = {
    val rnd = new scala.util.Random(12345)
    (0 until 300).map { i =>
      Array(
        i.toString,
        if (i % 17 == 0) "" else f"${rnd.nextDouble() * 100}%.2f", // some NULLs
        names(rnd.nextInt(names.size)),
      )
    }
  }

  private val obj: CsvObject = new CsvObject("prop/part-0000", schema, rows.toArray)

  private lazy val conn = {
    Class.forName("org.duckdb.DuckDBDriver")
    val c = DriverManager.getConnection("jdbc:duckdb:")
    c.createStatement.execute("CREATE TABLE t (id BIGINT, price DOUBLE, name VARCHAR)")
    val ps = c.prepareStatement("INSERT INTO t VALUES (?, ?, ?)")
    rows.foreach { r =>
      ps.setLong(1, r(0).toLong)
      if (r(1).isEmpty) ps.setNull(2, java.sql.Types.DOUBLE) else ps.setDouble(2, r(1).toDouble)
      ps.setString(3, r(2))
      ps.addBatch()
    }
    ps.executeBatch()
    c
  }

  // ----------------------------------------------------------- generators
  private val genNumAtom: Gen[Expr] = Gen.oneOf(
    Gen.chooseNum(-50L, 350L).map(v => Lit(SLong(v))),
    Gen.chooseNum(0.0, 120.0).map(v => Lit(SDouble(math.rint(v * 4) / 4))), // dyadic: exact in both engines
    Gen.const(Col("id")),
    Gen.const(Col("price")),
  )

  private def genNum(depth: Int): Gen[Expr] =
    if (depth <= 0) genNumAtom
    else Gen.frequency(
      3 -> genNumAtom,
      2 -> (for {
        op <- Gen.oneOf("+", "-", "*")
        l <- genNum(depth - 1); r <- genNum(depth - 1)
      } yield Arith(op, l, r)),
    )

  private def genPred(depth: Int): Gen[Expr] = {
    val leaf: Gen[Expr] = Gen.oneOf(
      for {
        op <- Gen.oneOf("=", "<", "<=", ">", ">=", "<>")
        l <- genNum(1); r <- genNum(1)
      } yield Cmp(op, l, r),
      Gen.oneOf(names).map(n => Cmp("=", Col("name"), Lit(SString(n)))),
      Gen.oneOf("PROMO%", "%a%", "%ta", "m_sc").map(p => Like(Col("name"), p, negated = false)),
      Gen.oneOf(true, false).map(neg => IsNull(Col("price"), neg)),
      Gen.listOfN(3, Gen.chooseNum(0L, 300L)).map(vs =>
        In(Col("id"), vs.map(v => Lit(SLong(v))), negated = false)),
    )
    if (depth <= 0) leaf
    else Gen.frequency(
      3 -> leaf,
      1 -> (for { l <- genPred(depth - 1); r <- genPred(depth - 1) } yield And(l, r)),
      1 -> (for { l <- genPred(depth - 1); r <- genPred(depth - 1) } yield Or(l, r)),
      1 -> genPred(depth - 1).map(Not.apply),
    )
  }

  private def duckIds(sql: String): Set[Long] = {
    val rs = conn.createStatement.executeQuery(sql)
    val out = Set.newBuilder[Long]
    while (rs.next()) out += rs.getLong(1)
    out.result()
  }

  property("random WHERE clauses match DuckDB") = Prop.forAll(genPred(2)) { pred =>
    val sql = SqlRender.render(SelectQuery(Seq(Proj(Col("id"), None)), Some(pred), None))
    val ours = SelectEngine.run(obj, SelectParser.parse(sql)).rows.map(_(0).toLong).toSet
    val duck = duckIds(sql.replace("FROM S3Object", "FROM t"))
    Prop(ours == duck) :| s"sql=$sql ours=${ours.size} duck=${duck.size}"
  }

  property("random aggregates match DuckDB") = Prop.forAll(genPred(2)) { pred =>
    val q = SelectQuery(Seq(
      Proj(AggCall("COUNT", None), None),
      Proj(AggCall("SUM", Some(Col("id"))), None),
      Proj(AggCall("MIN", Some(Col("price"))), None),
      Proj(AggCall("MAX", Some(Col("price"))), None)), Some(pred), None)
    val sql = SqlRender.render(q)
    val ours = SelectEngine.run(obj, SelectParser.parse(sql)).rows.head
    val rs = conn.createStatement.executeQuery(sql.replace("FROM S3Object", "FROM t"))
    rs.next()
    val cnt = rs.getLong(1)
    val sumNull = { rs.getLong(2); rs.wasNull() }
    val sum = rs.getLong(2)
    val minNull = { rs.getDouble(3); rs.wasNull() }
    val min = rs.getDouble(3)
    val ok =
      ours(0).toLong == cnt &&
      (if (sumNull) ours(1).isEmpty else ours(1).toLong == sum) &&
      (if (minNull) ours(2).isEmpty else math.abs(ours(2).toDouble - min) < 1e-6)
    Prop(ok) :| s"sql=$sql ours=${ours.toSeq} duck=($cnt,$sum,$min)"
  }

  property("LIMIT returns a prefix of the unlimited result") = Prop.forAll(
    genPred(1), Gen.chooseNum(1, 50)) { (pred, n) =>
    val base = SelectQuery(Seq(Proj(Col("id"), None)), Some(pred), None)
    val all = SelectEngine.run(obj, base).rows.map(_(0))
    val lim = SelectEngine.run(obj, base.copy(limit = Some(n.toLong))).rows.map(_(0))
    Prop(lim == all.take(n))
  }
}

/** Render → parse is the identity on the AST (modulo BETWEEN desugaring,
  * which the generator avoids).
  */
object SqlRenderProps extends Properties("SqlRender") {

  private val genLit: Gen[Expr] = Gen.oneOf(
    Gen.chooseNum(-100L, 100L).map(v => Lit(SLong(v))),
    Gen.chooseNum(-10.0, 10.0).map(v => Lit(SDouble(math.rint(v * 8) / 8))), // dyadic, exact
    Gen.alphaStr.map(s => Lit(SString(s.take(8)))),
  )

  private val genCol: Gen[Expr] = Gen.oneOf("a", "b", "c").map(Col.apply)

  private def genExpr(depth: Int): Gen[Expr] =
    if (depth <= 0) Gen.oneOf(genLit, genCol)
    else Gen.frequency(
      2 -> genLit, 2 -> genCol,
      1 -> (for { op <- Gen.oneOf("+", "-", "*", "/", "%"); l <- genExpr(depth - 1); r <- genExpr(depth - 1) } yield Arith(op, l, r)),
      1 -> (for { op <- Gen.oneOf("=", "<", "<=", ">", ">=", "<>"); l <- genExpr(depth - 1); r <- genExpr(depth - 1) } yield Cmp(op, l, r)),
      1 -> (for { l <- genExpr(depth - 1) } yield Cast(l, "INT")),
      1 -> (for { s <- genExpr(depth - 1); f <- genLit } yield Substring(s, f, None)),
      1 -> (for { c <- genExpr(depth - 1); t <- genExpr(depth - 1); e <- genExpr(depth - 1) } yield CaseWhen(Seq((c, t)), Some(e))),
    )

  property("parse(render(e)) == e") = Prop.forAll(genExpr(3)) { e =>
    val sql = SqlRender.render(e)
    val back = SelectParser.parsePredicate(sql)
    Prop(back == e) :| s"sql=$sql\n  back=$back\n  orig=$e"
  }

  property("parse(render(query)) == query") = Prop.forAll(genExpr(2), Gen.option(Gen.chooseNum(1L, 100L))) {
    (pred, limit) =>
      val q = SelectQuery(
        Seq(Proj(Col("a"), None), Proj(AggCall("SUM", Some(Col("b"))), None)),
        Some(Cmp("=", pred, pred)), limit)
      // aggregate+column mix is invalid to *run* but must still round-trip
      Prop(SelectParser.parse(SqlRender.render(q)) == q)
  }
}
