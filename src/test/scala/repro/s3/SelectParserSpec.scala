package repro.s3

import org.scalatest.funsuite.AnyFunSuite
import SelectAst._
import SelectParser.{parse, parsePredicate, ParseException}

class SelectParserSpec extends AnyFunSuite {

  test("select star") {
    assert(parse("SELECT * FROM S3Object") == SelectQuery(Seq(Star), None, None))
  }

  test("select columns") {
    assert(parse("SELECT a, b FROM S3Object") ==
      SelectQuery(Seq(Proj(Col("a"), None), Proj(Col("b"), None)), None, None))
  }

  test("column alias") {
    assert(parse("SELECT a AS x FROM S3Object").projections ==
      Seq(Proj(Col("a"), Some("x"))))
  }

  test("case-insensitive keywords and identifiers") {
    assert(parse("select A from s3object where B = 1").where ==
      Some(Cmp("=", Col("b"), Lit(SLong(1)))))
  }

  test("integer and float literals") {
    assert(parsePredicate("a = 42") == Cmp("=", Col("a"), Lit(SLong(42))))
    assert(parsePredicate("a = 4.5") == Cmp("=", Col("a"), Lit(SDouble(4.5))))
    assert(parsePredicate("a = 1e3") == Cmp("=", Col("a"), Lit(SDouble(1000.0))))
    assert(parsePredicate("a = 1.5e-3") == Cmp("=", Col("a"), Lit(SDouble(0.0015))))
  }

  test("string literal with escaped quote") {
    assert(parsePredicate("a = 'O''Brien'") == Cmp("=", Col("a"), Lit(SString("O'Brien"))))
  }

  test("date literal") {
    assert(parsePredicate("d < DATE '1995-03-15'") ==
      Cmp("<", Col("d"), Lit(SString("1995-03-15"))))
  }

  test("comparison operators") {
    for (op <- Seq("=", "<", "<=", ">", ">=", "<>"))
      assert(parsePredicate(s"a $op 1") == Cmp(op, Col("a"), Lit(SLong(1))))
    assert(parsePredicate("a != 1") == Cmp("<>", Col("a"), Lit(SLong(1))))
  }

  test("precedence: AND binds tighter than OR") {
    assert(parsePredicate("a = 1 OR b = 2 AND c = 3") ==
      Or(Cmp("=", Col("a"), Lit(SLong(1))),
         And(Cmp("=", Col("b"), Lit(SLong(2))), Cmp("=", Col("c"), Lit(SLong(3))))))
  }

  test("precedence: multiplication binds tighter than addition") {
    assert(parsePredicate("a + b * c = 1") match {
      case Cmp("=", Arith("+", Col("a"), Arith("*", Col("b"), Col("c"))), _) => true
      case _ => false
    })
  }

  test("precedence: comparison of arithmetic") {
    assert(parsePredicate("a * 2 < b - 1") match {
      case Cmp("<", Arith("*", _, _), Arith("-", _, _)) => true
      case _ => false
    })
  }

  test("parenthesized expressions") {
    assert(parsePredicate("(a + b) * c = 1") match {
      case Cmp("=", Arith("*", Arith("+", _, _), Col("c")), _) => true
      case _ => false
    })
  }

  test("unary minus folds into literals") {
    assert(parsePredicate("a <= -950") == Cmp("<=", Col("a"), Lit(SLong(-950))))
    assert(parsePredicate("a <= -9.5") == Cmp("<=", Col("a"), Lit(SDouble(-9.5))))
    assert(parsePredicate("-a < 0") == Cmp("<", Neg(Col("a")), Lit(SLong(0))))
  }

  test("modulo chain (bloom hash shape)") {
    val e = parsePredicate("((69 * CAST(attr AS INT) + 92) % 97) % 68 + 1 = 5")
    assert(e match {
      case Cmp("=", Arith("+", Arith("%", Arith("%", _, _), _), _), _) => true
      case _ => false
    })
  }

  test("SUBSTRING with comma args") {
    assert(parsePredicate("SUBSTRING('101', 2, 1) = '0'") ==
      Cmp("=", Substring(Lit(SString("101")), Lit(SLong(2)), Some(Lit(SLong(1)))), Lit(SString("0"))))
  }

  test("SUBSTRING with FROM/FOR") {
    assert(parsePredicate("SUBSTRING(s FROM 2 FOR 3) = 'x'") ==
      Cmp("=", Substring(Col("s"), Lit(SLong(2)), Some(Lit(SLong(3)))), Lit(SString("x"))))
  }

  test("CAST with precision") {
    assert(parsePredicate("CAST(a AS DECIMAL(10,2)) > 1") ==
      Cmp(">", Cast(Col("a"), "DECIMAL"), Lit(SLong(1))))
  }

  test("CASE WHEN chains") {
    val e = SelectParser.parse(
      "SELECT sum(CASE WHEN g = 0 THEN v ELSE 0 END), sum(CASE WHEN g = 1 THEN v ELSE 0 END) FROM t")
    assert(e.projections.size == 2)
    assert(e.isAggregate)
    assert(SelectAst.caseTermCount(e) == 2)
  }

  test("CASE without ELSE") {
    assert(parsePredicate("CASE WHEN a = 1 THEN 2 END = 2") match {
      case Cmp("=", CaseWhen(Seq((_, _)), None), _) => true
      case _ => false
    })
  }

  test("IN list") {
    assert(parsePredicate("a IN (1, 2, 3)") ==
      In(Col("a"), Seq(Lit(SLong(1)), Lit(SLong(2)), Lit(SLong(3))), negated = false))
  }

  test("NOT IN list") {
    assert(parsePredicate("a NOT IN ('x', 'y')") ==
      In(Col("a"), Seq(Lit(SString("x")), Lit(SString("y"))), negated = true))
  }

  test("LIKE and NOT LIKE") {
    assert(parsePredicate("a LIKE 'PROMO%'") == Like(Col("a"), "PROMO%", negated = false))
    assert(parsePredicate("a NOT LIKE '%x_'") == Like(Col("a"), "%x_", negated = true))
  }

  test("BETWEEN desugars to range") {
    assert(parsePredicate("a BETWEEN 1 AND 3") ==
      And(Cmp(">=", Col("a"), Lit(SLong(1))), Cmp("<=", Col("a"), Lit(SLong(3)))))
  }

  test("IS NULL / IS NOT NULL") {
    assert(parsePredicate("a IS NULL") == IsNull(Col("a"), negated = false))
    assert(parsePredicate("a IS NOT NULL") == IsNull(Col("a"), negated = true))
  }

  test("NOT predicate") {
    assert(parsePredicate("NOT a = 1") == Not(Cmp("=", Col("a"), Lit(SLong(1)))))
  }

  test("aggregates") {
    val q = parse("SELECT sum(a), count(*), min(a), max(b), avg(a) FROM t")
    assert(q.projections == Seq(
      Proj(AggCall("SUM", Some(Col("a"))), None),
      Proj(AggCall("COUNT", None), None),
      Proj(AggCall("MIN", Some(Col("a"))), None),
      Proj(AggCall("MAX", Some(Col("b"))), None),
      Proj(AggCall("AVG", Some(Col("a"))), None)))
    assert(q.isAggregate)
  }

  test("aggregate of expression") {
    assert(parse("SELECT sum(a * (1 - b)) FROM t").projections.head match {
      case Proj(AggCall("SUM", Some(Arith("*", _, _))), None) => true
      case _ => false
    })
  }

  test("WHERE and LIMIT") {
    val q = parse("SELECT a FROM t WHERE a < 5 LIMIT 10")
    assert(q.where.isDefined && q.limit.contains(10L))
  }

  test("GROUP BY rejected (the restriction that forces the paper's designs)") {
    assertThrows[ParseException](parse("SELECT a, sum(b) FROM t GROUP BY a"))
  }

  test("ORDER BY rejected") {
    assertThrows[ParseException](parse("SELECT a FROM t ORDER BY a"))
  }

  test("trailing garbage rejected") {
    assertThrows[ParseException](parse("SELECT a FROM t WHERE a = 1 extra"))
  }

  test("unterminated string rejected") {
    assertThrows[ParseException](parse("SELECT a FROM t WHERE a = 'oops"))
  }

  test("count(*) only valid for COUNT") {
    assertThrows[ParseException](parse("SELECT sum(*) FROM t"))
  }

  test("256KB expression limit enforced") {
    val big = "SELECT a FROM t WHERE a = '" + "x" * (256 * 1024) + "'"
    assertThrows[ExpressionTooLargeException](parse(big))
  }

  test("the limit counts UTF-8 bytes: exactly 256 KB parses, one byte more does not") {
    def query(bytes: Int) = {
      val frame = "SELECT a FROM t WHERE a = ''"
      "SELECT a FROM t WHERE a = '" + "x" * (bytes - frame.length) + "'"
    }
    assert(query(256 * 1024).length == 262144)
    assert(parse(query(262144)).where.isDefined)
    val e = intercept[ExpressionTooLargeException](parse(query(262145)))
    assert(e.size == 262145)
    val pred = "a = '" + "x" * (262144 - 6) + "'"
    assert(parsePredicate(pred).isInstanceOf[Cmp])
    assertThrows[ExpressionTooLargeException](parsePredicate(pred + " "))
  }

  test("a multibyte literal under the limit in chars but over it in bytes is rejected") {
    val lit = "\u00e9" * 140000 // 'é': 2 UTF-8 bytes each
    val sql = s"SELECT a FROM t WHERE a = '$lit'"
    assert(sql.length < 262144)
    val e = intercept[ExpressionTooLargeException](parse(sql))
    assert(e.size == sql.length + 140000)
    assertThrows[ExpressionTooLargeException](parsePredicate(s"a = '$lit'"))
  }

  test("predicate under the limit parses") {
    val s = "a = '" + "x" * 1000 + "'"
    assert(parsePredicate(s).isInstanceOf[Cmp])
  }

  test("referencedColumns collects all referenced names") {
    val q = parse("SELECT a, b + c FROM t WHERE d = 1 AND SUBSTRING(e, 1, 1) = 'x'")
    assert(SelectAst.referencedColumns(q) == Some(Set("a", "b", "c", "d", "e")))
  }

  test("referencedColumns of star is None") {
    assert(SelectAst.referencedColumns(parse("SELECT * FROM t")) == None)
  }

  test("substringProbeCount counts bloom probes") {
    val q = parse("SELECT a FROM t WHERE SUBSTRING('10', 1, 1) = '1' AND SUBSTRING('10', 2, 1) = '1'")
    assert(SelectAst.substringProbeCount(q) == 2)
  }
}
