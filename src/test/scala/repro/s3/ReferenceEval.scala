package repro.s3

import org.apache.spark.sql.types._
import SelectAst._

import java.util.concurrent.ConcurrentHashMap
import java.util.regex.Pattern

/** The tree-walking S3 Select evaluator that [[SelectEngine]] replaced,
  * kept as the oracle of `SelectEngineDiffProps`: it walks the AST once per
  * row and boxes every intermediate value as an [[SValue]]. Results,
  * byte counts, `exprFactor` and the exception class of every failure must
  * be the same on both engines.
  *
  * Its semantics, as the service semantics the paper depends on:
  *  - scanning is sequential over the object; `LIMIT n` stops early and only
  *    the bytes up to the last delivered row are charged as "scanned" (CSV);
  *  - columnar objects charge only the referenced columns' compressed bytes;
  *  - aggregation (no GROUP BY) returns exactly one row per object;
  *  - results are returned (and charged) in CSV form regardless of the
  *    object's physical format.
  */
object ReferenceEval {

  final case class Result(
      rows: Vector[Array[String]],
      scannedBytes: Long,
      returnedBytes: Long,
      /** S3-side compute slowdown factor for this query (CASE terms, Bloom
        * SUBSTRING probes) — consumed by [[RuntimeModel]].
        */
      exprFactor: Double,
  )

  def run(obj: StoredObject, q: SelectQuery): Result = {
    val schema = obj.schema
    val colIndex: Map[String, Int] =
      schema.fieldNames.iterator.zipWithIndex.map { case (n, i) => n.toLowerCase -> i }.toMap
    val types: Array[DataType] = schema.fields.map(_.dataType)

    // validate column references up front
    (referencedColumns(q) match {
      case Some(cols) => cols
      case None       => Set.empty[String]
    }).foreach { c =>
      if (!colIndex.contains(c)) throw new EvalException(s"unknown column '$c' in ${obj.key}")
    }

    val ctx = new Ctx(colIndex, types)
    if (q.isAggregate) runAggregate(obj, q, ctx)
    else runScan(obj, q, ctx)
  }

  private def exprFactorOf(q: SelectQuery): Double =
    1.0 + Model.CaseCostPerTerm * caseTermCount(q) +
      Model.BloomHashCost * substringProbeCount(q)

  // ------------------------------------------------------------- plain scan
  private def runScan(obj: StoredObject, q: SelectQuery, ctx: Ctx): Result = {
    val rows = obj.rows
    val out = Vector.newBuilder[Array[String]]
    var returned = 0L
    var produced = 0L
    val limit = q.limit.getOrElse(Long.MaxValue)
    var i = 0
    var lastScannedRow = 0
    while (i < rows.length && produced < limit) {
      val row = rows(i)
      lastScannedRow = i + 1
      val pass = q.where match {
        case None    => true
        case Some(p) => Eval.predicate(p, row, ctx)
      }
      if (pass) {
        val outRow = project(q.projections, row, ctx)
        out += outRow
        returned += CsvCodec.rowBytes(outRow)
        produced += 1
      }
      i += 1
    }
    val cols = referencedColumns(q)
    val scanned = obj match {
      case c: CsvObject if produced >= limit => c.scanBytesUpTo(lastScannedRow)
      case o                                 => o.scanBytes(cols)
    }
    Result(out.result(), scanned, returned, exprFactorOf(q))
  }

  private def project(projs: Seq[Projection], row: Array[String], ctx: Ctx): Array[String] = {
    val out = Array.newBuilder[String]
    projs.foreach {
      case Star => out ++= row
      case Proj(Col(n), _) => out += row(ctx.colIndex(n)) // raw cell, no reformat
      case Proj(e, _)      => out += Eval.format(Eval.eval(e, row, ctx))
    }
    out.result()
  }

  // ------------------------------------------------------------- aggregates
  private def runAggregate(obj: StoredObject, q: SelectQuery, ctx: Ctx): Result = {
    val aggs: Vector[AggCall] = q.projections.flatMap {
      case Proj(e, _) => collectAggs(e)
      case Star       => throw new EvalException("SELECT * cannot be combined with aggregates")
    }.distinct.toVector
    val accs = aggs.map(a => new Acc(a.func)).toArray

    val rows = obj.rows
    var i = 0
    while (i < rows.length) {
      val row = rows(i)
      val pass = q.where match {
        case None    => true
        case Some(p) => Eval.predicate(p, row, ctx)
      }
      if (pass) {
        var j = 0
        while (j < aggs.length) {
          val a = aggs(j)
          a.arg match {
            case None      => accs(j).addCount()
            case Some(arg) => accs(j).add(Eval.eval(arg, row, ctx))
          }
          j += 1
        }
      }
      i += 1
    }
    val env: Map[AggCall, SValue] = aggs.iterator.zipWithIndex.map { case (a, j) => a -> accs(j).result }.toMap
    val outRow = q.projections.map {
      case Proj(e, _) => Eval.format(Eval.evalWithAggs(e, env))
      case Star       => throw new EvalException("unreachable")
    }.toArray
    val scanned = obj.scanBytes(referencedColumns(q))
    Result(Vector(outRow), scanned, CsvCodec.rowBytes(outRow).toLong, exprFactorOf(q))
  }

  private def collectAggs(e: Expr): Seq[AggCall] = e match {
    case a: AggCall       => Seq(a)
    case Col(_) | Lit(_)  => Nil
    case Neg(x)           => collectAggs(x)
    case Arith(_, l, r)   => collectAggs(l) ++ collectAggs(r)
    case Cmp(_, l, r)     => collectAggs(l) ++ collectAggs(r)
    case And(l, r)        => collectAggs(l) ++ collectAggs(r)
    case Or(l, r)         => collectAggs(l) ++ collectAggs(r)
    case Not(x)           => collectAggs(x)
    case IsNull(x, _)     => collectAggs(x)
    case In(x, vs, _)     => collectAggs(x) ++ vs.flatMap(collectAggs)
    case Like(x, _, _)    => collectAggs(x)
    case Cast(x, _)       => collectAggs(x)
    case Substring(s, f, l) => collectAggs(s) ++ collectAggs(f) ++ l.toSeq.flatMap(collectAggs)
    case CaseWhen(bs, o)  => bs.flatMap { case (c, v) => collectAggs(c) ++ collectAggs(v) } ++ o.toSeq.flatMap(collectAggs)
  }

  /** SUM/MIN/MAX/AVG/COUNT accumulator with SQL null semantics. */
  private final class Acc(func: String) {
    private var count = 0L
    private var sumL = 0L
    private var sumD = 0.0
    private var sawDouble = false
    private var minMax: SValue = SNull

    def addCount(): Unit = count += 1

    def add(v: SValue): Unit = if (!v.isNull) {
      count += 1
      func match {
        case "SUM" | "AVG" =>
          v match {
            case SLong(x)   => sumL += x; sumD += x
            case SDouble(x) => sawDouble = true; sumD += x
            case other      => sawDouble = true; sumD += SValue.asDouble(other)
          }
        case "MIN" =>
          if (minMax.isNull || SValue.compare(v, minMax).exists(_ < 0)) minMax = v
        case "MAX" =>
          if (minMax.isNull || SValue.compare(v, minMax).exists(_ > 0)) minMax = v
        case "COUNT" => ()
        case other   => throw new EvalException(s"unknown aggregate $other")
      }
    }

    def result: SValue = func match {
      case "COUNT"         => SLong(count)
      case "SUM" if count == 0 => SNull
      case "SUM"           => if (sawDouble) SDouble(sumD) else SLong(sumL)
      case "AVG" if count == 0 => SNull
      case "AVG"           => SDouble(sumD / count)
      case "MIN" | "MAX"   => minMax
    }
  }

  // ------------------------------------------------------------- evaluation
  final class Ctx(val colIndex: Map[String, Int], val types: Array[DataType])

  object Eval {

    def predicate(e: Expr, row: Array[String], ctx: Ctx): Boolean = eval(e, row, ctx) match {
      case SBool(b) => b
      case SNull    => false
      case other    => throw new EvalException(s"predicate is not boolean: $other")
    }

    def eval(e: Expr, row: Array[String], ctx: Ctx): SValue = e match {
      case Col(n) =>
        val i = ctx.colIndex(n)
        typed(row(i), ctx.types(i))
      case Lit(v)  => v
      case Neg(x)  => eval(x, row, ctx) match {
        case SLong(v)   => SLong(-v)
        case SDouble(v) => SDouble(-v)
        case SNull      => SNull
        case other      => throw new EvalException(s"cannot negate $other")
      }
      case Arith(op, l, r) => arith(op, eval(l, row, ctx), eval(r, row, ctx))
      case Cmp(op, l, r)   => cmp(op, eval(l, row, ctx), eval(r, row, ctx))
      // SQL three-valued logic: FALSE decides AND and TRUE decides OR even
      // when the other operand is NULL; otherwise a NULL operand gives NULL.
      case And(l, r) => logical(eval(l, row, ctx)) match {
        case f @ SBool(false) => f
        case a => logical(eval(r, row, ctx)) match {
          case f @ SBool(false) => f
          case b => if (a.isNull) SNull else b
        }
      }
      case Or(l, r) => logical(eval(l, row, ctx)) match {
        case t @ SBool(true) => t
        case a => logical(eval(r, row, ctx)) match {
          case t @ SBool(true) => t
          case b => if (a.isNull) SNull else b
        }
      }
      case Not(x) => eval(x, row, ctx) match {
        case SBool(b) => SBool(!b)
        case SNull    => SNull
        case other    => throw new EvalException(s"NOT of $other")
      }
      case IsNull(x, negated) =>
        val isN = eval(x, row, ctx).isNull
        SBool(if (negated) !isN else isN)
      case In(x, vs, negated) =>
        val v = eval(x, row, ctx)
        if (v.isNull) SNull
        else {
          val hit = vs.exists(ve => SValue.compare(v, eval(ve, row, ctx)).contains(0))
          SBool(if (negated) !hit else hit)
        }
      case Like(x, pat, negated) =>
        val v = eval(x, row, ctx)
        if (v.isNull) SNull
        else {
          val hit = likeMatch(SValue.asString(v), pat)
          SBool(if (negated) !hit else hit)
        }
      case Cast(x, to)        => cast(eval(x, row, ctx), to)
      case Substring(s, f, l) =>
        val str   = SValue.asString(eval(s, row, ctx))
        val from  = SValue.asLong(eval(f, row, ctx)).toInt
        val len   = l.map(e2 => SValue.asLong(eval(e2, row, ctx)).toInt)
        SString(sqlSubstring(str, from, len))
      case CaseWhen(branches, otherwise) =>
        branches.find { case (c, _) => SValue.asBool(eval(c, row, ctx)) } match {
          case Some((_, v)) => eval(v, row, ctx)
          case None         => otherwise.map(eval(_, row, ctx)).getOrElse(SNull)
        }
      case AggCall(f, _) => throw new EvalException(s"aggregate $f outside aggregate context")
    }

    /** A TRUE / FALSE / NULL operand of AND or OR. */
    private def logical(v: SValue): SValue = v match {
      case SBool(_) | SNull => v
      case other            => throw new EvalException(s"not a boolean: $other")
    }

    /** Evaluate a projection containing aggregate results. */
    def evalWithAggs(e: Expr, env: Map[AggCall, SValue]): SValue = e match {
      case a: AggCall => env(a)
      case Lit(v)     => v
      case Neg(x)     => evalWithAggs(x, env) match {
        case SLong(v)   => SLong(-v)
        case SDouble(v) => SDouble(-v)
        case SNull      => SNull
        case other      => throw new EvalException(s"cannot negate $other")
      }
      case Arith(op, l, r) => arith(op, evalWithAggs(l, env), evalWithAggs(r, env))
      case Cast(x, to)     => cast(evalWithAggs(x, env), to)
      case Col(n) => throw new EvalException(s"bare column '$n' in aggregate query (no GROUP BY in S3 Select)")
      case other  => throw new EvalException(s"unsupported aggregate projection: $other")
    }

    def typed(cell: String, t: DataType): SValue =
      if (cell == null || cell.isEmpty) t match {
        case StringType => SString("")
        case _          => SNull
      }
      else t match {
        case LongType | IntegerType | ShortType => SLong(cell.toLong)
        case DoubleType | FloatType             => SDouble(cell.toDouble)
        case _: DecimalType                     => SDouble(cell.toDouble)
        case DateType | StringType              => SString(cell) // ISO dates compare as strings
        case BooleanType                        => SBool(cell.toBoolean)
        case other => throw new EvalException(s"unsupported column type $other")
      }

    def arith(op: String, a: SValue, b: SValue): SValue = {
      if (a.isNull || b.isNull) return SNull
      (op, a, b) match {
        case ("%", _, _)                => SLong(Math.floorMod(SValue.asLong(a), SValue.asLong(b)))
        case ("/", _, _)                => SDouble(SValue.asDouble(a) / SValue.asDouble(b))
        case (_, SLong(x), SLong(y))    => op match {
          case "+" => SLong(x + y)
          case "-" => SLong(x - y)
          case "*" => SLong(x * y)
        }
        case _ =>
          val (x, y) = (SValue.asDouble(a), SValue.asDouble(b))
          op match {
            case "+" => SDouble(x + y)
            case "-" => SDouble(x - y)
            case "*" => SDouble(x * y)
          }
      }
    }

    def cmp(op: String, a: SValue, b: SValue): SValue = SValue.compare(a, b) match {
      case None => SNull
      case Some(c) =>
        SBool(op match {
          case "="  => c == 0
          case "<>" => c != 0
          case "<"  => c < 0
          case "<=" => c <= 0
          case ">"  => c > 0
          case ">=" => c >= 0
        })
    }

    def cast(v: SValue, to: String): SValue =
      if (v.isNull) SNull
      else to match {
        case "INT" | "INTEGER" | "BIGINT"          => SLong(SValue.asLong(v))
        case "FLOAT" | "DOUBLE" | "DECIMAL" | "NUMERIC" => SDouble(SValue.asDouble(v))
        case "STRING" | "VARCHAR" | "CHAR"         => SString(SValue.asString(v))
        case "BOOL" | "BOOLEAN"                    => SBool(SValue.asBool(v))
        case "TIMESTAMP" | "DATE"                  => SString(SValue.asString(v))
        case other => throw new EvalException(s"unsupported CAST target $other")
      }

    def sqlSubstring(s: String, from1: Int, len: Option[Int]): String = {
      // SQL 1-based semantics; out-of-range clamps.
      val start = math.max(0, from1 - 1)
      if (start >= s.length) ""
      else {
        val end = len match {
          case Some(l) => math.min(s.length, math.max(start, start + l))
          case None    => s.length
        }
        s.substring(start, end)
      }
    }

    def likeMatch(s: String, pattern: String): Boolean =
      likePatterns.computeIfAbsent(pattern, compileLike).matcher(s).matches()

    /** Each LIKE pattern's regex, compiled on its first row. */
    private val likePatterns = new ConcurrentHashMap[String, Pattern]()

    private def compileLike(pattern: String): Pattern = {
      val sb = new StringBuilder
      pattern.foreach {
        case '%' => sb.append(".*")
        case '_' => sb.append('.')
        case c   => sb.append(Pattern.quote(c.toString))
      }
      Pattern.compile(sb.toString)
    }

    /** Format a value the way the CSV response serializes it. */
    def format(v: SValue): String = v match {
      case SLong(x)   => x.toString
      case SDouble(x) => x.toString
      case SString(s) => s
      case SBool(b)   => b.toString
      case SNull      => ""
    }
  }
}
