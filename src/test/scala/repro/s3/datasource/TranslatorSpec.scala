package repro.s3.datasource

import org.apache.spark.sql.sources
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.s3._
import repro.s3.SelectAst._

class FilterTranslatorSpec extends AnyFunSuite {
  import FilterTranslator.translate

  test("comparison filters") {
    assert(translate(sources.EqualTo("A", 5)) == Some(Cmp("=", Col("a"), Lit(SLong(5)))))
    assert(translate(sources.GreaterThan("a", 1.5)) == Some(Cmp(">", Col("a"), Lit(SDouble(1.5)))))
    assert(translate(sources.LessThanOrEqual("a", "x")) == Some(Cmp("<=", Col("a"), Lit(SString("x")))))
  }

  test("date values become ISO strings") {
    assert(translate(sources.LessThan("d", java.sql.Date.valueOf("1995-03-15"))) ==
      Some(Cmp("<", Col("d"), Lit(SString("1995-03-15")))))
    assert(translate(sources.LessThan("d", java.time.LocalDate.parse("1995-03-15"))) ==
      Some(Cmp("<", Col("d"), Lit(SString("1995-03-15")))))
  }

  test("null handling filters") {
    assert(translate(sources.IsNull("a")) == Some(IsNull(Col("a"), negated = false)))
    assert(translate(sources.IsNotNull("a")) == Some(IsNull(Col("a"), negated = true)))
  }

  test("IN list") {
    assert(translate(sources.In("a", Array(1, 2))) ==
      Some(In(Col("a"), Seq(Lit(SLong(1)), Lit(SLong(2))), negated = false)))
  }

  test("boolean combinations recurse") {
    val f = sources.Or(sources.And(sources.EqualTo("a", 1), sources.EqualTo("b", 2)),
                       sources.Not(sources.EqualTo("c", 3)))
    assert(translate(f) == Some(Or(
      And(Cmp("=", Col("a"), Lit(SLong(1))), Cmp("=", Col("b"), Lit(SLong(2)))),
      Not(Cmp("=", Col("c"), Lit(SLong(3)))))))
  }

  test("string matching becomes LIKE") {
    assert(translate(sources.StringStartsWith("a", "PRO")) == Some(Like(Col("a"), "PRO%", negated = false)))
    assert(translate(sources.StringEndsWith("a", "X")) == Some(Like(Col("a"), "%X", negated = false)))
    assert(translate(sources.StringContains("a", "mid")) == Some(Like(Col("a"), "%mid%", negated = false)))
  }

  test("string matching on text holding a LIKE wildcard stays a residual") {
    assert(translate(sources.StringStartsWith("a", "50%")).isEmpty)
    assert(translate(sources.StringEndsWith("a", "x_y")).isEmpty)
    assert(translate(sources.StringContains("a", "%")).isEmpty)
  }

  test("untranslatable leaves poison the whole conjunct") {
    val weird = sources.EqualNullSafe("a", 1)
    assert(translate(weird).isEmpty)
    assert(translate(sources.And(sources.EqualTo("a", 1), weird)).isEmpty)
  }

  test("unsupported literal types refuse translation") {
    assert(translate(sources.EqualTo("a", new java.sql.Timestamp(0))).isEmpty)
  }
}

class AggTranslatorSpec extends AnyFunSuite {
  import org.apache.spark.sql.connector.expressions.{Expressions, GeneralScalarExpression}
  import org.apache.spark.sql.connector.expressions.aggregate._

  private val table = StructType(Seq(
    StructField("l", LongType), StructField("d", DoubleType), StructField("i", IntegerType)))

  private def ref(n: String) = Expressions.column(n)

  test("sum/min/max/count of a column translate") {
    assert(AggTranslator.translate(new Sum(ref("d"), false)).get._1 ==
      AggCall("SUM", Some(Col("d"))))
    assert(AggTranslator.translate(new Min(ref("l"))).get._1 == AggCall("MIN", Some(Col("l"))))
    assert(AggTranslator.translate(new Max(ref("l"))).get._1 == AggCall("MAX", Some(Col("l"))))
    assert(AggTranslator.translate(new CountStar()).get._1 == AggCall("COUNT", None))
  }

  test("distinct aggregates are refused") {
    assert(AggTranslator.translate(new Sum(ref("d"), true)).isEmpty)
    assert(AggTranslator.translate(new Count(ref("d"), true)).isEmpty)
  }

  test("arithmetic expression inside SUM translates") {
    val mul = new GeneralScalarExpression("*", Array(ref("d"), ref("l")))
    assert(AggTranslator.translate(new Sum(mul, false)).get._1 ==
      AggCall("SUM", Some(Arith("*", Col("d"), Col("l")))))
  }

  test("unsupported scalar function refuses translation") {
    val weird = new GeneralScalarExpression("SQRT", Array(ref("d")))
    assert(AggTranslator.translate(new Sum(weird, false)).isEmpty)
  }

  test("output types match Spark's partial-aggregate expectations") {
    assert(AggTranslator.outputType(new Sum(ref("l"), false), table) == LongType)
    assert(AggTranslator.outputType(new Sum(ref("i"), false), table) == LongType)
    assert(AggTranslator.outputType(new Sum(ref("d"), false), table) == DoubleType)
    assert(AggTranslator.outputType(new CountStar(), table) == LongType)
    assert(AggTranslator.outputType(new Min(ref("d")), table) == DoubleType)
    assert(AggTranslator.outputType(new Max(ref("l")), table) == LongType)
  }

  test("division forces double output") {
    val div = new GeneralScalarExpression("/", Array(ref("l"), ref("l")))
    assert(AggTranslator.outputType(new Sum(div, false), table) == DoubleType)
  }
}

class ValuesSpec extends AnyFunSuite {
  import SValue._

  test("numeric coercions") {
    assert(asDouble(SLong(3)) == 3.0)
    assert(asDouble(SString(" 2.5 ")) == 2.5)
    assert(asLong(SDouble(3.9)) == 3)
    assert(asLong(SString("42")) == 42)
    assert(asLong(SString("4.7")) == 4)
  }

  test("null arithmetic is rejected at coercion") {
    assertThrows[EvalException](asDouble(SNull))
    assertThrows[EvalException](asLong(SNull))
  }

  test("comparisons: long/long stays integral (no precision loss)") {
    val big = (1L << 60) + 1
    assert(compare(SLong(big), SLong(big - 1)) == Some(1))
  }

  test("comparisons: mixed numeric promotes to double") {
    assert(compare(SLong(2), SDouble(2.5)).exists(_ < 0))
  }

  test("comparisons: string vs number coerces the string") {
    assert(compare(SString("10"), SLong(9)).exists(_ > 0))
  }

  test("comparisons with NULL are undefined") {
    assert(compare(SNull, SLong(1)).isEmpty)
    assert(compare(SString("a"), SNull).isEmpty)
  }

  test("string comparison is lexicographic (ISO dates order correctly)") {
    assert(compare(SString("1994-12-31"), SString("1995-01-01")).exists(_ < 0))
  }

  test("asBool: NULL filters, non-bool rejects") {
    assert(!asBool(SNull))
    assert(asBool(SBool(true)))
    assertThrows[EvalException](asBool(SLong(1)))
  }
}

class TableCatalogCellSpec extends AnyFunSuite {
  import repro.core.TableCatalog.parseCell

  test("parseCell typed conversions") {
    assert(parseCell("42", LongType) == 42L)
    assert(parseCell("42.0", LongType) == 42L)
    assert(parseCell("3.5", DoubleType) == 3.5)
    assert(parseCell("1992-01-31", DateType) == java.sql.Date.valueOf("1992-01-31"))
    assert(parseCell("x", StringType) == "x")
    assert(parseCell("7", IntegerType) == 7)
  }

  test("parseCell empty → null except strings") {
    assert(parseCell("", LongType) == null)
    assert(parseCell(null, DoubleType) == null)
    assert(parseCell("", StringType) == "")
  }
}
