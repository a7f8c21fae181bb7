package repro.s3

import SelectAst._

/** Recursive-descent parser for the S3 Select SQL subset.
  *
  * PushdownDB builds every storage-side query as a SQL *string* (that is the
  * only interface S3 Select offers); this parser turns those strings back
  * into [[SelectAst]] for the engine. Parsing the string form — rather than
  * constructing ASTs directly — keeps the 256 KB expression-size limit and
  * the Bloom-filter string encoding (§V-A2) honest.
  */
object SelectParser {

  final class ParseException(msg: String) extends RuntimeException(msg)

  /** S3 Select's documented SQL expression length limit (bytes). */
  val MaxExpressionBytes: Int = 256 * 1024

  def parse(sql: String): SelectQuery = {
    checkSize(sql)
    new P(tokenize(sql)).parseQuery()
  }

  /** Parse a bare predicate (used by tests and the `extraWhere` option). */
  def parsePredicate(sql: String): Expr = {
    checkSize(sql)
    val p = new P(tokenize(sql))
    val e = p.expr()
    p.expectEof()
    e
  }

  /** The limit counts the UTF-8 bytes of the SQL text, as sent. */
  private def checkSize(sql: String): Unit = {
    val size = CsvCodec.cellBytes(sql)
    if (size > MaxExpressionBytes) throw new ExpressionTooLargeException(size, MaxExpressionBytes)
  }

  // ---------------------------------------------------------------- tokens
  private sealed trait Tok
  private final case class TIdent(s: String)  extends Tok // upper-cased
  private final case class TNum(s: String)    extends Tok
  private final case class TStr(s: String)    extends Tok
  private final case class TSym(s: String)    extends Tok
  private case object TEof                    extends Tok

  private def tokenize(sql: String): Vector[Tok] = {
    val out = Vector.newBuilder[Tok]
    var i = 0
    val n = sql.length
    while (i < n) {
      val c = sql.charAt(i)
      if (c.isWhitespace) i += 1
      else if (c.isLetter || c == '_') {
        val j = i
        while (i < n && (sql.charAt(i).isLetterOrDigit || sql.charAt(i) == '_')) i += 1
        out += TIdent(sql.substring(j, i).toUpperCase)
      } else if (c.isDigit || (c == '.' && i + 1 < n && sql.charAt(i + 1).isDigit)) {
        val j = i
        while (i < n && (sql.charAt(i).isDigit || sql.charAt(i) == '.' ||
               sql.charAt(i) == 'e' || sql.charAt(i) == 'E' ||
               ((sql.charAt(i) == '+' || sql.charAt(i) == '-') && i > j &&
                (sql.charAt(i - 1) == 'e' || sql.charAt(i - 1) == 'E')))) i += 1
        out += TNum(sql.substring(j, i))
      } else if (c == '\'') {
        val sb = new StringBuilder
        i += 1
        var done = false
        while (!done) {
          if (i >= n) throw new ParseException("unterminated string literal")
          val ch = sql.charAt(i)
          if (ch == '\'') {
            if (i + 1 < n && sql.charAt(i + 1) == '\'') { sb += '\''; i += 2 }
            else { i += 1; done = true }
          } else { sb += ch; i += 1 }
        }
        out += TStr(sb.toString)
      } else {
        val two = if (i + 1 < n) sql.substring(i, i + 2) else ""
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") { out += TSym(two); i += 2 }
        else if ("+-*/%(),=<>".indexOf(c) >= 0) { out += TSym(c.toString); i += 1 }
        else throw new ParseException(s"unexpected character '$c' at $i")
      }
    }
    out += TEof
    out.result()
  }

  // ---------------------------------------------------------------- parser
  private final class P(toks: Vector[Tok]) {
    private var pos = 0
    private def peek: Tok = toks(pos)
    private def next(): Tok = { val t = toks(pos); pos += 1; t }
    private def fail(msg: String): Nothing = throw new ParseException(s"$msg (at token ${toks(pos)})")

    private def acceptIdent(s: String): Boolean = peek match {
      case TIdent(x) if x == s => pos += 1; true
      case _                   => false
    }
    private def expectIdent(s: String): Unit = if (!acceptIdent(s)) fail(s"expected $s")
    private def acceptSym(s: String): Boolean = peek match {
      case TSym(x) if x == s => pos += 1; true
      case _                 => false
    }
    private def expectSym(s: String): Unit = if (!acceptSym(s)) fail(s"expected '$s'")

    def expectEof(): Unit = peek match {
      case TEof => ()
      case t    => fail(s"trailing input: $t")
    }

    def parseQuery(): SelectQuery = {
      expectIdent("SELECT")
      val projs = Vector.newBuilder[Projection]
      var more = true
      while (more) {
        if (acceptSym("*")) projs += Star
        else {
          val e = expr()
          val alias = peek match {
            case TIdent("AS") => next(); next() match {
              case TIdent(a) => Some(a.toLowerCase)
              case t         => fail(s"expected alias, got $t")
            }
            case _ => None
          }
          projs += Proj(e, alias)
        }
        more = acceptSym(",")
      }
      expectIdent("FROM")
      next() match { // table name — always the S3 object ("S3Object" in real S3 Select)
        case TIdent(_) => ()
        case t         => fail(s"expected table name, got $t")
      }
      val where = if (acceptIdent("WHERE")) Some(expr()) else None
      val limit = if (acceptIdent("LIMIT")) next() match {
        case TNum(s) => Some(s.toLong)
        case t       => fail(s"expected LIMIT count, got $t")
      } else None
      // Reject what S3 Select rejects — this is what forces PushdownDB's
      // operator decompositions.
      peek match {
        case TIdent("GROUP") => fail("S3 Select does not support GROUP BY")
        case TIdent("ORDER") => fail("S3 Select does not support ORDER BY")
        case TIdent("JOIN")  => fail("S3 Select does not support JOIN")
        case _               => ()
      }
      expectEof()
      SelectQuery(projs.result(), where, limit)
    }

    // precedence: OR < AND < NOT < cmp/IN/LIKE/BETWEEN/IS < add < mul < unary < primary
    def expr(): Expr = orExpr()

    private def orExpr(): Expr = {
      var l = andExpr()
      while (acceptIdent("OR")) l = Or(l, andExpr())
      l
    }

    private def andExpr(): Expr = {
      var l = notExpr()
      while (acceptIdent("AND")) l = And(l, notExpr())
      l
    }

    private def notExpr(): Expr =
      if (acceptIdent("NOT")) Not(notExpr()) else cmpExpr()

    private def cmpExpr(): Expr = {
      val l = addExpr()
      peek match {
        case TSym(op @ ("=" | "<" | "<=" | ">" | ">=" | "<>" | "!=")) =>
          next()
          Cmp(if (op == "!=") "<>" else op, l, addExpr())
        case TIdent("IS") =>
          next()
          val neg = acceptIdent("NOT")
          expectIdent("NULL")
          IsNull(l, neg)
        case TIdent("NOT") =>
          next()
          peek match {
            case TIdent("IN")      => next(); inList(l, negated = true)
            case TIdent("LIKE")    => next(); likeTail(l, negated = true)
            case TIdent("BETWEEN") => next(); betweenTail(l, negated = true)
            case t                 => fail(s"expected IN/LIKE/BETWEEN after NOT, got $t")
          }
        case TIdent("IN")      => next(); inList(l, negated = false)
        case TIdent("LIKE")    => next(); likeTail(l, negated = false)
        case TIdent("BETWEEN") => next(); betweenTail(l, negated = false)
        case _ => l
      }
    }

    private def inList(l: Expr, negated: Boolean): Expr = {
      expectSym("(")
      val vs = Vector.newBuilder[Expr]
      vs += addExpr()
      while (acceptSym(",")) vs += addExpr()
      expectSym(")")
      In(l, vs.result(), negated)
    }

    private def likeTail(l: Expr, negated: Boolean): Expr = next() match {
      case TStr(p) => Like(l, p, negated)
      case t       => fail(s"LIKE pattern must be a string literal, got $t")
    }

    private def betweenTail(l: Expr, negated: Boolean): Expr = {
      val lo = addExpr()
      expectIdent("AND")
      val hi = addExpr()
      val in = And(Cmp(">=", l, lo), Cmp("<=", l, hi))
      if (negated) Not(in) else in
    }

    private def addExpr(): Expr = {
      var l = mulExpr()
      var more = true
      while (more) peek match {
        case TSym("+") => next(); l = Arith("+", l, mulExpr())
        case TSym("-") => next(); l = Arith("-", l, mulExpr())
        case _         => more = false
      }
      l
    }

    private def mulExpr(): Expr = {
      var l = unary()
      var more = true
      while (more) peek match {
        case TSym("*") => next(); l = Arith("*", l, unary())
        case TSym("/") => next(); l = Arith("/", l, unary())
        case TSym("%") => next(); l = Arith("%", l, unary())
        case _         => more = false
      }
      l
    }

    private def unary(): Expr =
      if (acceptSym("-")) unary() match {
        // fold into negative literals so render→parse is the identity
        case Lit(SLong(v))   => Lit(SLong(-v))
        case Lit(SDouble(v)) => Lit(SDouble(-v))
        case e               => Neg(e)
      }
      else if (acceptSym("+")) unary()
      else primary()

    private def primary(): Expr = next() match {
      case TNum(s) =>
        if (s.contains('.') || s.toLowerCase.contains('e')) Lit(SDouble(s.toDouble))
        else Lit(SLong(s.toLong))
      case TStr(s) => Lit(SString(s))
      case TSym("(") =>
        val e = expr()
        expectSym(")")
        e
      case TIdent("CAST") =>
        expectSym("(")
        val e = expr()
        expectIdent("AS")
        val to = next() match {
          case TIdent(t) => t
          case t         => fail(s"expected type name, got $t")
        }
        // swallow optional precision, e.g. DECIMAL(10,2)
        if (acceptSym("(")) {
          while (!acceptSym(")")) next()
        }
        expectSym(")")
        Cast(e, to)
      case TIdent("SUBSTRING") =>
        expectSym("(")
        val s = expr()
        val from = if (acceptIdent("FROM")) expr() else { expectSym(","); expr() }
        val len =
          if (acceptIdent("FOR")) Some(expr())
          else if (acceptSym(",")) Some(expr())
          else None
        expectSym(")")
        Substring(s, from, len)
      case TIdent("CASE") =>
        val branches = Vector.newBuilder[(Expr, Expr)]
        while (acceptIdent("WHEN")) {
          val c = expr()
          expectIdent("THEN")
          branches += ((c, expr()))
        }
        val otherwise = if (acceptIdent("ELSE")) Some(expr()) else None
        expectIdent("END")
        CaseWhen(branches.result(), otherwise)
      case TIdent("DATE") => // DATE '1995-03-15' — kept as its ISO string
        next() match {
          case TStr(s) => Lit(SString(s))
          case t       => fail(s"expected date string, got $t")
        }
      case TIdent("NULL")  => Lit(SNull)
      case TIdent("TRUE")  => Lit(SBool(true))
      case TIdent("FALSE") => Lit(SBool(false))
      case TIdent(f @ ("SUM" | "MIN" | "MAX" | "AVG" | "COUNT")) =>
        expectSym("(")
        if (acceptSym("*")) {
          expectSym(")")
          if (f != "COUNT") fail(s"$f(*) is not valid")
          AggCall("COUNT", None)
        } else {
          val a = expr()
          expectSym(")")
          AggCall(f, Some(a))
        }
      case TIdent(name) =>
        // Bare identifier = column reference. Real S3 Select uses s._N or
        // header names; we use schema names (documented deviation).
        Col(name.toLowerCase)
      case t => fail(s"unexpected token $t")
    }
  }
}
