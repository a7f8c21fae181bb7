package repro.s3

import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.s3.SelectAst._
import repro.s3.datasource.SqlRender

/** Differential properties: random ASTs run through the lowered engine
  * ([[SelectEngine]]) and the tree-walking one it replaced ([[ReferenceEval]])
  * must give the same rows, byte counts and `exprFactor`, or throw the same
  * exception class — over CSV and columnar objects, with and without LIMIT,
  * in scan and aggregate mode. The ASTs are typed only loosely, so type
  * errors, NULL cells, `Long`/`Double` mixes and out-of-range SUBSTRINGs all
  * occur.
  */
object SelectEngineDiffProps extends Properties("SelectEngineDiff") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(400)

  private val schema = StructType(Seq(
    StructField("id", LongType),
    StructField("qty", IntegerType),
    StructField("price", DoubleType),
    StructField("amt", DecimalType(10, 2)),
    StructField("name", StringType),
    StructField("d", DateType),
    StructField("b", BooleanType),
  ))

  private val names = Vector("alpha", "beta", "PROMO X", "a_b", "", "12", "7.5")
  private val dates = Vector("1994-01-01", "1995-06-15", "1998-09-02")

  private val rows: Array[Array[String]] = {
    val rnd = new scala.util.Random(7)
    Array.tabulate(40) { i =>
      Array(
        i.toString,
        if (i % 6 == 0) "" else (rnd.nextInt(50) - 5).toString,
        if (i % 7 == 0) "" else f"${rnd.nextDouble() * 100}%.2f",
        f"${rnd.nextInt(1000) / 4.0}%.2f",
        names(rnd.nextInt(names.size)),
        if (i % 9 == 0) "" else dates(rnd.nextInt(dates.size)),
        if (i % 5 == 0) "" else rnd.nextBoolean().toString,
      )
    }
  }

  private val objects: Seq[StoredObject] = Seq(
    new CsvObject("diff/part-0000", schema, rows),
    new ColumnarObject("diff.parquet/part-0000", schema, rows, 0.7),
    new CsvObject("diff/part-0001", schema, Array.empty),
  )

  // ----------------------------------------------------------- generators
  private val numCols = Seq("id", "qty", "price", "amt")
  private val strCols = Seq("name", "d")

  private val genNumLit: Gen[Expr] = Gen.frequency(
    4 -> Gen.chooseNum(-5L, 40L).map(v => Lit(SLong(v))),
    1 -> Gen.oneOf(Long.MaxValue, Long.MinValue, 0L, 1L << 40).map(v => Lit(SLong(v))),
    3 -> Gen.oneOf(0.5, 2.25, -0.0, 0.0, 12.5, 1e300, -3.75).map(v => Lit(SDouble(v))),
    1 -> Gen.const(Lit(SNull)),
  )

  private val genStrLit: Gen[Expr] =
    Gen.oneOf(names ++ dates ++ Seq("1", "a", "zeta")).map(s => Lit(SString(s)))

  private def genNum(depth: Int): Gen[Expr] = {
    val atom = Gen.frequency(3 -> Gen.oneOf(numCols).map(Col.apply), 2 -> genNumLit)
    if (depth <= 0) atom
    else Gen.frequency(
      4 -> atom,
      3 -> (for {
        op <- Gen.oneOf("+", "-", "*", "/", "%")
        l <- genNum(depth - 1); r <- genNum(depth - 1)
      } yield Arith(op, l, r)),
      1 -> genNum(depth - 1).map(Neg.apply),
      1 -> (for {
        x <- genAny(depth - 1); to <- Gen.oneOf("INT", "BIGINT", "DOUBLE", "DECIMAL")
      } yield Cast(x, to)),
      1 -> genCase(depth, genNum(depth - 1)),
    )
  }

  private def genStr(depth: Int): Gen[Expr] = {
    val atom = Gen.frequency(3 -> Gen.oneOf(strCols).map(Col.apply), 2 -> genStrLit, 1 -> Gen.const(Lit(SNull)))
    if (depth <= 0) atom
    else Gen.frequency(
      4 -> atom,
      2 -> (for {
        s <- genStr(depth - 1)
        from <- Gen.frequency(4 -> Gen.chooseNum(-3L, 12L).map(v => Lit(SLong(v))), 1 -> genNum(depth - 1))
        len <- Gen.option(Gen.frequency(4 -> Gen.chooseNum(-2L, 6L).map(v => Lit(SLong(v))), 1 -> genNum(depth - 1)))
      } yield Substring(s, from, len)),
      1 -> (for {
        x <- genAny(depth - 1); to <- Gen.oneOf("STRING", "VARCHAR", "DATE", "TIMESTAMP")
      } yield Cast(x, to)),
      1 -> genCase(depth, genStr(depth - 1)),
    )
  }

  private def genCase(depth: Int, value: Gen[Expr]): Gen[Expr] = for {
    n <- Gen.chooseNum(1, 3)
    bs <- Gen.listOfN(n, for { c <- genPred(depth - 1); v <- value } yield (c, v))
    o <- Gen.option(Gen.frequency(3 -> value, 1 -> genAny(depth - 1)))
  } yield CaseWhen(bs, o)

  /** `SUBSTRING(bits, ((a * CAST(c AS INT) + b) % n) % m + 1, 1) = '1'`, as
    * `BloomFilter.toSqlPredicate` ships it, or with a random position.
    */
  private def genProbe(depth: Int): Gen[Expr] = for {
    bits <- Gen.listOfN(13, Gen.oneOf('0', '1')).map(_.mkString)
    // a product past 63 bits wraps, and a negative one shows % as floorMod
    a <- Gen.oneOf(Gen.chooseNum(1L, 1L << 40), Gen.chooseNum(1L << 58, Long.MaxValue), Gen.chooseNum(-50L, -1L))
    b <- Gen.chooseNum(0L, 16L)
    c <- Gen.oneOf("id", "qty", "price", "name")
    hash = Arith("+", Arith("%", Arith("%", Arith("+", Arith("*", Lit(SLong(a)), Cast(Col(c), "INT")),
      Lit(SLong(b))), Lit(SLong(17L))), Lit(SLong(13L))), Lit(SLong(1L)))
    from <- Gen.frequency(4 -> Gen.const(hash), 1 -> genNum(depth - 1))
    ch <- Gen.oneOf("1", "0")
  } yield Cmp("=", Substring(Lit(SString(bits)), from, Some(Lit(SLong(1L)))), Lit(SString(ch)))

  private def genPred(depth: Int): Gen[Expr] = {
    val d = math.max(depth - 1, 0)
    val leaf: Gen[Expr] = Gen.frequency(
      4 -> (for { op <- Gen.oneOf("=", "<>", "<", "<=", ">", ">="); l <- genNum(d); r <- genNum(d) } yield Cmp(op, l, r)),
      3 -> (for { op <- Gen.oneOf("=", "<>", "<", ">="); l <- genStr(d); r <- genStr(d) } yield Cmp(op, l, r)),
      1 -> (for { op <- Gen.oneOf("=", "<"); l <- genAny(d); r <- genAny(d) } yield Cmp(op, l, r)),
      2 -> (for { x <- genAny(d); neg <- Gen.oneOf(true, false) } yield IsNull(x, neg)),
      2 -> (for {
        x <- Gen.oneOf(genNum(d), genStr(d))
        vs <- Gen.nonEmptyListOf(Gen.frequency(3 -> genNumLit, 3 -> genStrLit, 1 -> Gen.const(Lit(SNull))))
        neg <- Gen.oneOf(true, false)
      } yield In(x, vs.take(4), neg)),
      2 -> (for {
        x <- Gen.oneOf(strCols).map(Col.apply); vs <- Gen.nonEmptyListOf(genStrLit); neg <- Gen.oneOf(true, false)
      } yield In(x, vs.take(4), neg)),
      2 -> (for {
        x <- Gen.frequency(4 -> genStr(d), 1 -> genNum(d))
        p <- Gen.oneOf("PROMO%", "%a%", "a_b", "1%", "%", "_2", "19%")
        neg <- Gen.oneOf(true, false)
      } yield Like(x, p, neg)),
      2 -> genProbe(depth),
      1 -> Gen.oneOf(Lit(SBool(true)), Lit(SBool(false)), Lit(SNull), Col("b")),
      1 -> genAny(d).map(Cast(_, "BOOLEAN")),
    )
    if (depth <= 0) leaf
    else Gen.frequency(
      4 -> leaf,
      2 -> (for { l <- genPred(depth - 1); r <- genPred(depth - 1) } yield And(l, r)),
      2 -> (for { l <- genPred(depth - 1); r <- genPred(depth - 1) } yield Or(l, r)),
      1 -> genPred(depth - 1).map(Not.apply),
    )
  }

  private def genAny(depth: Int): Gen[Expr] =
    Gen.frequency(3 -> genNum(depth), 2 -> genStr(depth), 1 -> Gen.lzy(genPred(depth)))

  private val genLimit: Gen[Option[Long]] = Gen.option(Gen.chooseNum(0L, 30L))

  private val genScan: Gen[SelectQuery] = for {
    n <- Gen.chooseNum(1, 3)
    projs <- Gen.listOfN(n, Gen.frequency(
      1 -> Gen.const(Star),
      3 -> Gen.oneOf(schema.fieldNames.toSeq).map(c => Proj(Col(c), None)),
      4 -> genAny(2).map(Proj(_, None))))
    where <- Gen.option(genPred(2))
    limit <- genLimit
  } yield SelectQuery(projs, where, limit)

  private def genAgg(depth: Int): Gen[Expr] = {
    val call: Gen[Expr] = Gen.frequency(
      4 -> (for { f <- Gen.oneOf("SUM", "AVG", "COUNT"); x <- genNum(2) } yield AggCall(f, Some(x))),
      2 -> (for { f <- Gen.oneOf("MIN", "MAX"); x <- genAny(1) } yield AggCall(f, Some(x))),
      1 -> Gen.const(AggCall("COUNT", None)),
      // an S3-side group-by term (§VI-A): SUM(CASE WHEN g = v THEN x ELSE 0 END)
      3 -> (for {
        g <- Gen.oneOf("name", "qty", "d")
        v <- if (g == "qty") Gen.chooseNum(-5L, 40L).map(x => Lit(SLong(x))) else genStrLit
        x <- genNum(1)
        els <- Gen.oneOf(Some(Lit(SLong(0L))), Some(Lit(SDouble(0.0))), None)
      } yield AggCall("SUM", Some(CaseWhen(Seq((Cmp("=", Col(g), v), x)), els)))),
    )
    if (depth <= 0) call
    else Gen.frequency(
      5 -> call,
      1 -> (for { op <- Gen.oneOf("+", "-", "*", "/", "%"); l <- genAgg(depth - 1); r <- Gen.oneOf(genAgg(depth - 1), genNumLit) } yield Arith(op, l, r)),
      1 -> (for { x <- genAgg(depth - 1); to <- Gen.oneOf("INT", "DOUBLE", "STRING", "BOOL") } yield Cast(x, to)),
      1 -> genAgg(depth - 1).map(Neg.apply),
      1 -> Gen.oneOf(Col("id"), Lit(SLong(3L)), Lit(SString("x")), IsNull(Col("id"), negated = false)),
    )
  }

  private val genAggregate: Gen[SelectQuery] = for {
    n <- Gen.chooseNum(1, 4)
    projs <- Gen.listOfN(n, Gen.frequency(20 -> genAgg(1).map(Proj(_, None)), 1 -> Gen.const(Star)))
    projs1 = if (projs.exists { case Proj(e, _) => containsAgg(e); case Star => false }) projs
             else Proj(AggCall("COUNT", None), None) +: projs
    where <- Gen.option(genPred(2))
    limit <- genLimit
  } yield SelectQuery(projs1, where, limit)

  // ----------------------------------------------------------- comparison
  private type Outcome = Either[Class[_], (Seq[Seq[String]], Long, Long, Double)]

  private def outcome(r: => (Vector[Array[String]], Long, Long, Double)): Outcome =
    try { val (rows, s, ret, x) = r; Right((rows.map(_.toSeq), s, ret, x)) }
    catch { case e: Exception => Left(e.getClass) }

  private def agree(q: SelectQuery): Prop = {
    // one lowering shared by every object, as S3Client shares it across a table
    val lowered = SelectEngine.lower(q, schema)
    val props = objects.map { obj =>
      val ref = outcome { val r = ReferenceEval.run(obj, q); (r.rows, r.scannedBytes, r.returnedBytes, r.exprFactor) }
      val ours = outcome { val r = lowered.run(obj); (r.rows, r.scannedBytes, r.returnedBytes, r.exprFactor) }
      (ref, Prop(ours == ref) :| s"${obj.key}: query $q\n  reference $ref\n  lowered   $ours")
    }
    val (full, _) = props.head
    Prop.classify(full.isLeft, "throws", full.fold(_ => "", r => if (r._1.nonEmpty) "rows" else "no rows")) {
      Prop.all(props.map(_._2): _*)
    }
  }

  property("scans agree with the reference evaluator") = Prop.forAll(genScan)(agree)

  property("aggregates agree with the reference evaluator") = Prop.forAll(genAggregate)(agree)

  property("Bloom predicates agree with the reference evaluator") = Prop.forAll(
    Gen.chooseNum(1, 7).flatMap(Gen.listOfN(_, genProbe(1)))) { probes =>
    agree(SelectQuery(Seq(Proj(Col("id"), None)), Some(probes.reduceLeft(And)), None))
  }

  private val genDecimal: Gen[String] = Gen.frequency(
    4 -> (for {
      sign <- Gen.oneOf("", "-", "+", " ")
      int <- Gen.choose(0, 20).flatMap(Gen.listOfN(_, Gen.numChar)).map(_.mkString)
      dot <- Gen.oneOf("", ".", ".", "..")
      frac <- Gen.choose(0, 25).flatMap(Gen.listOfN(_, Gen.numChar)).map(_.mkString)
      tail <- Gen.frequency(9 -> Gen.const(""), 1 -> Gen.oneOf("e3", "d", " ", "x"))
    } yield sign + int + dot + frac + tail),
    1 -> Gen.oneOf(Gen.double, Gen.chooseNum(-1e6, 1e6)).map(_.toString),
    1 -> Gen.oneOf("9007199254740993", "9007199254740992.5", "0.1", "-0", "1e22", "NaN", "-Infinity", ""),
  )

  property("decimal cells read as Double.parseDouble reads them") = Prop.forAll(genDecimal) { s =>
    def read(p: String => Double) =
      scala.util.Try(java.lang.Double.doubleToRawLongBits(p(s))).toEither.left.map(_.getClass)
    Prop(read(SelectEngine.parseDouble) == read(java.lang.Double.parseDouble)) :| s"'$s'"
  }

  // the parser folds negative literals and lower-cases names; a rendered
  // Long.MinValue does not parse, and such a query is discarded
  property("parsed SQL agrees with the reference evaluator") = Prop.forAll(Gen.oneOf(genScan, genAggregate)) { q =>
    scala.util.Try(SelectParser.parse(SqlRender.render(q))).fold(_ => Prop.undecided, agree)
  }
}
