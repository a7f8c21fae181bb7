package repro.s3

import org.apache.spark.sql.types._
import SelectAst._

import java.util.regex.Pattern
import scala.annotation.switch

/** Executes a parsed S3 Select query against one stored object.
  *
  * Mirrors the service semantics the paper depends on:
  *  - scanning is sequential over the object; `LIMIT n` stops early and only
  *    the bytes up to the last delivered row are charged as "scanned" (CSV);
  *  - columnar objects charge only the referenced columns' compressed bytes;
  *  - aggregation (no GROUP BY) returns exactly one row per object;
  *  - results are returned (and charged) in CSV form regardless of the
  *    object's physical format.
  *
  * A query is lowered once against the schema of the objects it runs on
  * ([[lower]]): column indices, literal types, LIKE patterns, the referenced
  * columns and `exprFactor` are resolved then, and every AST node becomes a
  * node object whose methods evaluate it on the current row. Nodes whose
  * type is known from the schema and the literals work on primitives (`Long`,
  * `Double`, raw `String` cells, three-valued `Int` truth values); the rest
  * box [[SValue]]s. Every semantic rule — three-valued logic, an empty
  * non-string cell reading as NULL, `Long` wrap, `%` as `floorMod`, `/` in
  * double, the SUM promotion rule — is the one the boxed values follow, and
  * a type error still throws only when a row reaches it.
  */
object SelectEngine {

  final case class Result(
      rows: Vector[Array[String]],
      scannedBytes: Long,
      returnedBytes: Long,
      /** S3-side compute slowdown factor for this query (CASE terms, Bloom
        * SUBSTRING probes) — consumed by [[RuntimeModel]].
        */
      exprFactor: Double,
  )

  def run(obj: StoredObject, q: SelectQuery): Result = lower(q, obj.schema).run(obj)

  /** `q` lowered for objects with `schema`. Lowering never throws: a query
    * the engine rejects fails when it runs, as the service's requests do.
    */
  def lower(q: SelectQuery, schema: StructType): Lowered = new Lowered(q, schema)

  /** A query lowered against one schema. Immutable, so the requests of one
    * select can share it across threads; each run keeps its state in a
    * [[Frame]] of its own.
    */
  final class Lowered private[SelectEngine] (val query: SelectQuery, val schema: StructType) {
    private val colIndex: Map[String, Int] =
      schema.fieldNames.iterator.zipWithIndex.map { case (n, i) => n.toLowerCase -> i }.toMap
    private val referenced = referencedColumns(query)
    private val unknownColumn = referenced.flatMap(_.find(c => !colIndex.contains(c)))
    private val exprFactor =
      1.0 + Model.CaseCostPerTerm * caseTermCount(query) + Model.BloomHashCost * substringProbeCount(query)
    private val l = new Lowering(colIndex, schema.fields.map(_.dataType), query)
    private val where: BoolNode = query.where.map(p => l.bool(l.expr(p), "predicate is not boolean: ")).orNull
    private val starInAggregate = query.isAggregate && query.projections.contains(Star)
    private val aggs: Array[AggCall] =
      if (!query.isAggregate || starInAggregate) Array.empty
      else query.projections.flatMap { case Proj(e, _) => collectAggs(e); case Star => Nil }.distinct.toArray
    private val adders: Array[Adder] = aggs.map {
      case AggCall(_, None)      => Adder.count
      case AggCall(_, Some(arg)) => l.adder(arg)
    }
    private val finals: Array[Array[SValue] => SValue] =
      if (aggs.isEmpty) Array.empty
      else query.projections.collect { case Proj(e, _) => l.afterAggregates(e, aggs) }.toArray
    /** A scan's cell writer per projection; null stands for `*`. */
    private val cells: Array[Frame => String] =
      if (query.isAggregate) Array.empty
      else query.projections.map { case Star => null; case Proj(e, _) => l.cell(e) }.toArray
    private val stars = cells.count(_ == null)
    private val slots = l.slots

    /** Run against `obj`; `limit` overrides the query's own LIMIT. */
    def run(obj: StoredObject, limit: Option[Long] = query.limit): Result =
      if ((obj.schema ne schema) && obj.schema != schema) lower(query, obj.schema).run(obj, limit)
      else {
        unknownColumn.foreach(c => throw new EvalException(s"unknown column '$c' in ${obj.key}"))
        if (starInAggregate) throw new EvalException("SELECT * cannot be combined with aggregates")
        if (query.isAggregate) runAggregate(obj) else runScan(obj, limit.getOrElse(Long.MaxValue))
      }

    private def runScan(obj: StoredObject, limit: Long): Result = {
      val rows = obj.rows
      val f = new Frame(schema.size, slots)
      val out = Vector.newBuilder[Array[String]]
      var returned = 0L
      var produced = 0L
      var i = 0
      var lastScannedRow = 0
      while (i < rows.length && produced < limit) {
        val row = rows(i)
        f.row = row
        f.rowNo = i
        lastScannedRow = i + 1
        if (where == null || where.test(f) == True) {
          val outRow = new Array[String](cells.length - stars + stars * row.length)
          var p = 0
          var j = 0
          while (j < cells.length) {
            val c = cells(j)
            if (c == null) { System.arraycopy(row, 0, outRow, p, row.length); p += row.length }
            else { outRow(p) = c(f); p += 1 }
            j += 1
          }
          out += outRow
          returned += CsvCodec.rowBytes(outRow)
          produced += 1
        }
        i += 1
      }
      val scanned = obj match {
        case c: CsvObject if produced >= limit => c.scanBytesUpTo(lastScannedRow)
        case o                                 => o.scanBytes(referenced)
      }
      Result(out.result(), scanned, returned, exprFactor)
    }

    private def runAggregate(obj: StoredObject): Result = {
      val rows = obj.rows
      val f = new Frame(schema.size, slots)
      val accs = aggs.map(a => new Acc(a.func))
      var i = 0
      while (i < rows.length) {
        f.row = rows(i)
        f.rowNo = i
        if (where == null || where.test(f) == True) {
          var j = 0
          while (j < adders.length) { adders(j).add(f, accs(j)); j += 1 }
        }
        i += 1
      }
      val results = accs.map(_.result)
      val outRow = finals.map(p => format(p(results)))
      Result(Vector(outRow), obj.scanBytes(referenced), CsvCodec.rowBytes(outRow).toLong, exprFactor)
    }
  }

  private def collectAggs(e: Expr): Seq[AggCall] = e match {
    case a: AggCall => Seq(a)
    case _          => children(e).flatMap(collectAggs)
  }

  // ------------------------------------------------------------- run state
  /** One run's state: the current row, the null flag of the last primitive
    * node evaluated, and the cells parsed so far in this row.
    */
  private final class Frame(width: Int, slots: Int) {
    var row: Array[String] = _
    var rowNo = 0
    var isNull = false
    /** The row number whose value `longs(i)` / `doubles(i)` holds. */
    val parsedAt: Array[Int] = Array.fill(width)(-1)
    val longs = new Array[Long](width)
    val doubles = new Array[Double](width)
    /** The row number whose truth value `memo(slot)` holds. */
    val memoAt: Array[Int] = Array.fill(slots)(-1)
    val memo = new Array[Int](slots)
  }

  /** Three-valued truth values of [[BoolNode]]. */
  private final val True = 1
  private final val False = 0
  private final val Unknown = -1

  /** Operators by the codes of [[longOp]], [[doubleOp]] and [[truth]]. */
  private val ArithOps = Vector("+", "-", "*", "/", "%")
  private val CmpOps = Vector("=", "<>", "<", "<=", ">", ">=")

  private def longOp(code: Int, x: Long, y: Long): Long = (code: @switch) match {
    case 0 => x + y
    case 1 => x - y
    case 2 => x * y
    case _ => Math.floorMod(x, y)
  }

  private def doubleOp(code: Int, x: Double, y: Double): Double = (code: @switch) match {
    case 0 => x + y
    case 1 => x - y
    case 2 => x * y
    case _ => x / y
  }

  /** Whether comparison `code` holds for a `compare` result `c`. */
  private def truth(code: Int, c: Int): Int = {
    val holds = (code: @switch) match {
      case 0 => c == 0
      case 1 => c != 0
      case 2 => c < 0
      case 3 => c <= 0
      case 4 => c > 0
      case _ => c >= 0
    }
    if (holds) True else False
  }

  /** A BIGINT operand where NULL is an error, as `SValue.asLong` has it. */
  private def strict(f: Frame, v: Long): Long =
    if (f.isNull) throw new EvalException("NULL used as integer") else v

  // ------------------------------------------------------------- node kinds
  /** A lowered expression. `value` boxes its result; the subclasses below
    * also yield it unboxed.
    */
  private abstract class Node {
    def value(f: Frame): SValue
    def nullAt(f: Frame): Boolean = value(f).isNull
  }

  /** A BIGINT: `long` returns the value and sets `f.isNull`. */
  private abstract class LongNode extends Node {
    def long(f: Frame): Long
    final def value(f: Frame): SValue = { val v = long(f); if (f.isNull) SNull else SLong(v) }
    final override def nullAt(f: Frame): Boolean = { long(f); f.isNull }
  }

  /** A DOUBLE: `double` returns the value and sets `f.isNull`. */
  private abstract class DoubleNode extends Node {
    def double(f: Frame): Double
    final def value(f: Frame): SValue = { val v = double(f); if (f.isNull) SNull else SDouble(v) }
    final override def nullAt(f: Frame): Boolean = { double(f); f.isNull }
  }

  /** A string (or ISO date); `str` returns null for NULL. */
  private abstract class StrNode extends Node {
    def str(f: Frame): String
    final def value(f: Frame): SValue = { val s = str(f); if (s == null) SNull else SString(s) }
    final override def nullAt(f: Frame): Boolean = str(f) == null
  }

  /** A boolean: `test` returns [[True]], [[False]] or [[Unknown]] (NULL). */
  private abstract class BoolNode extends Node {
    def test(f: Frame): Int
    final def value(f: Frame): SValue = test(f) match {
      case True  => SBool(true)
      case False => SBool(false)
      case _     => SNull
    }
    final override def nullAt(f: Frame): Boolean = test(f) == Unknown
  }

  private final class LongLit(val x: Long) extends LongNode {
    def long(f: Frame): Long = { f.isNull = false; x }
  }

  private final class DoubleLit(val x: Double) extends DoubleNode {
    def double(f: Frame): Double = { f.isNull = false; x }
  }

  private final class StrLit(val s: String) extends StrNode {
    def str(f: Frame): String = s
  }

  /** A node of no static type: only `value`. */
  private def boxed(v: Frame => SValue): Node = new Node { def value(f: Frame): SValue = v(f) }

  private def fails(e: => Exception): Node = boxed(_ => throw e)

  /** Feeds one aggregate's argument into its accumulator. */
  private abstract class Adder { def add(f: Frame, acc: Acc): Unit }

  private object Adder {
    val count: Adder = new Adder { def add(f: Frame, acc: Acc): Unit = acc.addCount() }
  }

  // ------------------------------------------------------------- lowering
  private final class Lowering(colIndex: Map[String, Int], types: Array[DataType], q: SelectQuery) {

    private def subexpressions(e: Expr): Seq[Expr] = e +: children(e).flatMap(subexpressions)

    private val all: Seq[Expr] =
      (q.projections.collect { case Proj(e, _) => e } ++ q.where).flatMap(subexpressions)

    /** Columns referenced more than once keep their parsed value per row. */
    private val cached: Set[Int] =
      all.collect { case Col(n) => colIndex.get(n) }.flatten.groupBy(identity).collect {
        case (i, refs) if refs.size > 1 => i
      }.toSet

    /** Conditions that occur more than once, like the group tests of a CASE
      * ladder, are evaluated once per row.
      */
    private val repeated: Set[Expr] = all.filter {
      case _: Cmp | _: And | _: Or | _: Not | _: IsNull | _: In | _: Like => true
      case _                                                            => false
    }.groupBy(identity).collect { case (e, uses) if uses.size > 1 => e }.toSet

    private val memos = scala.collection.mutable.HashMap.empty[Expr, BoolNode]

    /** Memo slots a [[Frame]] of this query needs. */
    def slots: Int = memos.size

    def expr(e: Expr): Node =
      if (repeated(e)) memos.getOrElse(e, {
        val m = memo(lower(e).asInstanceOf[BoolNode], memos.size)
        memos(e) = m
        m
      })
      else lower(e)

    private def lower(e: Expr): Node = e match {
      case Col(n)          => column(n)
      case Lit(v)          => literal(v)
      case Neg(x)          => neg(expr(x))
      // a Bloom probe's position, one past its hash (§V-A1): ((a * x + b) % n) % m + 1
      case Arith("+", Arith("%", Arith("%", Arith("+", Arith("*", Lit(SLong(a)), x), Lit(SLong(b))),
          Lit(SLong(n))), Lit(SLong(m))), Lit(SLong(1))) if expr(x).isInstanceOf[LongNode] =>
        val key = expr(x).asInstanceOf[LongNode]
        new LongNode {
          def long(f: Frame): Long = {
            val v = key.long(f)
            if (f.isNull) 0L else Math.floorMod(Math.floorMod(a * v + b, n), m) + 1
          }
        }
      case Arith(op, l, r) => arith(op, expr(l), expr(r))
      // a Bloom probe (§V-A2): one char of the bit string against a one-char literal
      case Cmp("=", Substring(s, from, Some(Lit(SLong(1)))), Lit(SString(c))) if c.length == 1 =>
        probe(text(expr(s)), strictLong(expr(from)), c.charAt(0))
      case Cmp(op, l, r)   => cmp(op, expr(l), expr(r))
      case And(_, _)       => connective(operands(e), decides = False)
      case Or(_, _)        => connective(operands(e), decides = True)
      case Not(x)          => not(bool(expr(x), "NOT of "))
      case IsNull(x, neg)  => isNull(expr(x), neg)
      case In(x, vs, neg)  => in(expr(x), vs, neg)
      case Like(x, p, neg) => like(text(expr(x)), compileLike(p), neg)
      case Cast(x, to)     => cast(expr(x), to)
      case Substring(s, from, len) => substring(text(expr(s)), strictLong(expr(from)), len.map(e2 => strictLong(expr(e2))))
      case CaseWhen(bs, o) => caseWhen(bs.map { case (c, v) => (bool(expr(c), "not a boolean: "), expr(v)) }, o.map(expr))
      case AggCall(func, _) => fails(new EvalException(s"aggregate $func outside aggregate context"))
    }

    /** A column typed by the schema; an empty cell of a non-string column
      * is NULL, as is a null cell.
      */
    private def column(name: String): Node = colIndex.get(name) match {
      case None => fails(new NoSuchElementException(s"key not found: $name"))
      case Some(i) =>
        val keep = cached.contains(i)
        types(i) match {
          case LongType | IntegerType | ShortType => new LongNode {
            def long(f: Frame): Long = {
              val cell = f.row(i)
              f.isNull = cell == null || cell.isEmpty
              if (f.isNull) 0L
              else if (!keep) java.lang.Long.parseLong(cell)
              else if (f.parsedAt(i) == f.rowNo) f.longs(i)
              else { val v = java.lang.Long.parseLong(cell); f.longs(i) = v; f.parsedAt(i) = f.rowNo; v }
            }
          }
          case DoubleType | FloatType | _: DecimalType => new DoubleNode {
            def double(f: Frame): Double = {
              val cell = f.row(i)
              f.isNull = cell == null || cell.isEmpty
              if (f.isNull) 0.0
              else if (!keep) parseDouble(cell)
              else if (f.parsedAt(i) == f.rowNo) f.doubles(i)
              else { val v = parseDouble(cell); f.doubles(i) = v; f.parsedAt(i) = f.rowNo; v }
            }
          }
          case StringType => new StrNode {
            def str(f: Frame): String = { val cell = f.row(i); if (cell == null) "" else cell }
          }
          case DateType => new StrNode { // ISO dates compare as strings
            def str(f: Frame): String = { val cell = f.row(i); if (cell == null || cell.isEmpty) null else cell }
          }
          case t => boxed(f => typed(f.row(i), t))
        }
    }

    private def literal(v: SValue): Node = v match {
      case SLong(x)   => new LongLit(x)
      case SDouble(x) => new DoubleLit(x)
      case SString(s) => new StrLit(s)
      case SBool(b)   => val t = if (b) True else False; new BoolNode { def test(f: Frame): Int = t }
      case SNull      => boxed(_ => SNull)
    }

    private def neg(x: Node): Node = x match {
      case n: LongNode   => new LongNode { def long(f: Frame): Long = -n.long(f) }
      case n: DoubleNode => new DoubleNode { def double(f: Frame): Double = -n.double(f) }
      case n => boxed(f => negate(n.value(f)))
    }

    private def numeric(n: Node): Boolean = n.isInstanceOf[LongNode] || n.isInstanceOf[DoubleNode]

    /** A numeric node read as BIGINT, the way `SValue.asLong` reads it. */
    private def asLong(n: Node): LongNode = n match {
      case l: LongNode   => l
      case c: DoubleLit  => new LongLit(c.x.toLong)
      case d: DoubleNode => new LongNode { def long(f: Frame): Long = d.double(f).toLong }
    }

    private def asDouble(n: Node): DoubleNode = n match {
      case d: DoubleNode => d
      case c: LongLit    => new DoubleLit(c.x.toDouble)
      case l: LongNode   => new DoubleNode { def double(f: Frame): Double = l.long(f).toDouble }
    }

    /** Both operands are evaluated before either is checked for NULL. A
      * literal operand is folded into its node.
      */
    private def arith(op: String, l: Node, r: Node): Node = {
      val code = ArithOps.indexOf(op)
      if (code < 0 || !numeric(l) || !numeric(r))
        boxed(f => { val a = l.value(f); arithValue(op, a, r.value(f)) })
      else if (op == "%" || (l.isInstanceOf[LongNode] && r.isInstanceOf[LongNode] && op != "/"))
        (asLong(l), asLong(r)) match {
          case (a: LongLit, b) => new LongNode {
            def long(f: Frame): Long = { val y = b.long(f); if (f.isNull) 0L else longOp(code, a.x, y) }
          }
          case (a, b: LongLit) => new LongNode {
            def long(f: Frame): Long = { val x = a.long(f); if (f.isNull) 0L else longOp(code, x, b.x) }
          }
          case (a, b) => new LongNode {
            def long(f: Frame): Long = {
              val x = a.long(f); val xn = f.isNull
              val y = b.long(f)
              f.isNull = xn || f.isNull
              if (f.isNull) 0L else longOp(code, x, y)
            }
          }
        }
      else (asDouble(l), asDouble(r)) match {
        case (a: DoubleLit, b) => new DoubleNode {
          def double(f: Frame): Double = { val y = b.double(f); if (f.isNull) 0.0 else doubleOp(code, a.x, y) }
        }
        case (a, b: DoubleLit) => new DoubleNode {
          def double(f: Frame): Double = { val x = a.double(f); if (f.isNull) 0.0 else doubleOp(code, x, b.x) }
        }
        case (a, b) => new DoubleNode {
          def double(f: Frame): Double = {
            val x = a.double(f); val xn = f.isNull
            val y = b.double(f)
            f.isNull = xn || f.isNull
            if (f.isNull) 0.0 else doubleOp(code, x, y)
          }
        }
      }
    }

    /** A comparison; a literal right operand is folded into its node. */
    private def cmp(op: String, l: Node, r: Node): BoolNode = {
      val code = CmpOps.indexOf(op)
      (l, r) match {
        case _ if code < 0 => new BoolNode {
          def test(f: Frame): Int = {
            val x = l.value(f)
            if (SValue.compare(x, r.value(f)).isEmpty) Unknown else throw new MatchError(op)
          }
        }
        case (a: LongNode, b: LongLit) => new BoolNode {
          def test(f: Frame): Int = { val x = a.long(f); if (f.isNull) Unknown else truth(code, java.lang.Long.compare(x, b.x)) }
        }
        case (a: LongNode, b: LongNode) => new BoolNode {
          def test(f: Frame): Int = {
            val x = a.long(f); val xn = f.isNull
            val y = b.long(f)
            if (xn || f.isNull) Unknown else truth(code, java.lang.Long.compare(x, y))
          }
        }
        case _ if numeric(l) && numeric(r) => (asDouble(l), asDouble(r)) match {
          case (a, b: DoubleLit) => new BoolNode {
            def test(f: Frame): Int = { val x = a.double(f); if (f.isNull) Unknown else truth(code, java.lang.Double.compare(x, b.x)) }
          }
          case (a, b) => new BoolNode {
            def test(f: Frame): Int = {
              val x = a.double(f); val xn = f.isNull
              val y = b.double(f)
              if (xn || f.isNull) Unknown else truth(code, java.lang.Double.compare(x, y))
            }
          }
        }
        case (a: StrNode, b: StrLit) => new BoolNode {
          def test(f: Frame): Int = { val x = a.str(f); if (x == null) Unknown else truth(code, x.compareTo(b.s)) }
        }
        case (a: StrNode, b: StrNode) => new BoolNode {
          def test(f: Frame): Int = {
            val x = a.str(f)
            val y = b.str(f)
            if (x == null || y == null) Unknown else truth(code, x.compareTo(y))
          }
        }
        case _ => new BoolNode {
          def test(f: Frame): Int = {
            val x = l.value(f)
            SValue.compare(x, r.value(f)) match {
              case None    => Unknown
              case Some(c) => truth(code, c)
            }
          }
        }
      }
    }

    /** `SUBSTRING(s, from, 1) = 'c'` without building the substring. */
    private def probe(s: StrNode, from: LongNode, c: Char): BoolNode = new BoolNode {
      def test(f: Frame): Int = {
        val str = s.str(f)
        val start = math.max(0, strict(f, from.long(f)).toInt - 1)
        if (str != null && start < str.length && str.charAt(start) == c) True else False
      }
    }

    /** A node as a truth value: TRUE, FALSE or NULL, else an error `what`. */
    def bool(n: Node, what: String): BoolNode = n match {
      case b: BoolNode => b
      case _ => new BoolNode {
        def test(f: Frame): Int = n.value(f) match {
          case SBool(b) => if (b) True else False
          case SNull    => Unknown
          case other    => throw new EvalException(s"$what$other")
        }
      }
    }

    private def memo(b: BoolNode, slot: Int): BoolNode = new BoolNode {
      def test(f: Frame): Int =
        if (f.memoAt(slot) == f.rowNo) f.memo(slot)
        else { val t = b.test(f); f.memo(slot) = t; f.memoAt(slot) = f.rowNo; t }
    }

    /** The operands of a chain of ANDs (or of ORs), left to right; a
      * repeated sub-chain stays one operand, to be evaluated once per row.
      */
    private def operands(e: Expr): Seq[Expr] = {
      def flat(x: Expr): Seq[Expr] = (e, x) match {
        case (And(_, _), And(l, r)) if !repeated(x) || (x eq e) => flat(l) ++ flat(r)
        case (Or(_, _), Or(l, r)) if !repeated(x) || (x eq e)   => flat(l) ++ flat(r)
        case _                                                  => Seq(x)
      }
      flat(e)
    }

    // SQL three-valued logic: FALSE decides AND and TRUE decides OR even
    // when another operand is NULL; otherwise a NULL operand gives NULL.
    // Operands are evaluated left to right until one decides.
    private def connective(ops: Seq[Expr], decides: Int): BoolNode = {
      val parts = ops.map(o => bool(expr(o), "not a boolean: ")).toArray
      val otherwise = True + False - decides
      new BoolNode {
        def test(f: Frame): Int = {
          var unknown = false
          var i = 0
          while (i < parts.length) {
            val t = parts(i).test(f)
            if (t == decides) return decides
            if (t == Unknown) unknown = true
            i += 1
          }
          if (unknown) Unknown else otherwise
        }
      }
    }

    private def not(x: BoolNode): BoolNode = new BoolNode {
      def test(f: Frame): Int = { val t = x.test(f); if (t == Unknown) Unknown else True - t }
    }

    private def isNull(x: Node, negated: Boolean): BoolNode = new BoolNode {
      def test(f: Frame): Int = if (x.nullAt(f) != negated) True else False
    }

    /** A NULL in the list never matches, so `x NOT IN (…, NULL)` can hold. */
    private def in(x: Node, vs: Seq[Expr], negated: Boolean): BoolNode = {
      val (hit, miss) = if (negated) (False, True) else (True, False)
      val strings = vs.collect { case Lit(SString(s)) => s }
      x match {
        case s: StrNode if strings.size == vs.size =>
          val set = strings.toSet
          new BoolNode {
            def test(f: Frame): Int = {
              val v = s.str(f)
              if (v == null) Unknown else if (set.contains(v)) hit else miss
            }
          }
        case _ =>
          val values = vs.map(expr).toArray
          new BoolNode {
            def test(f: Frame): Int = {
              val v = x.value(f)
              if (v.isNull) Unknown
              else {
                var i = 0
                while (i < values.length && !SValue.compare(v, values(i).value(f)).contains(0)) i += 1
                if (i < values.length) hit else miss
              }
            }
          }
      }
    }

    private def like(x: StrNode, p: Pattern, negated: Boolean): BoolNode = new BoolNode {
      def test(f: Frame): Int = {
        val s = x.str(f)
        if (s == null) Unknown else if (p.matcher(s).matches() != negated) True else False
      }
    }

    /** A node read as text, the way `SValue.asString` reads it; NULL stays null. */
    private def text(n: Node): StrNode = n match {
      case s: StrNode => s
      case l: LongNode => new StrNode {
        def str(f: Frame): String = { val v = l.long(f); if (f.isNull) null else java.lang.Long.toString(v) }
      }
      case d: DoubleNode => new StrNode {
        def str(f: Frame): String = { val v = d.double(f); if (f.isNull) null else java.lang.Double.toString(v) }
      }
      case _ => new StrNode {
        def str(f: Frame): String = n.value(f) match {
          case SNull => null
          case v     => SValue.asString(v)
        }
      }
    }

    /** A node read as BIGINT where NULL is an error (a SUBSTRING position):
      * the caller passes its value through [[strict]].
      */
    private def strictLong(n: Node): LongNode = n match {
      case _ if numeric(n) => asLong(n)
      case _ => new LongNode {
        def long(f: Frame): Long = { val v = SValue.asLong(n.value(f)); f.isNull = false; v }
      }
    }

    /** SQL 1-based SUBSTRING; out-of-range clamps, and NULL text reads as ''. */
    private def substring(s: StrNode, from: LongNode, len: Option[LongNode]): StrNode = new StrNode {
      def str(f: Frame): String = {
        val t = s.str(f)
        val str = if (t == null) "" else t
        val start = math.max(0, strict(f, from.long(f)).toInt - 1)
        val end = len match {
          case Some(l) => val n = strict(f, l.long(f)).toInt; math.min(str.length, math.max(start, start + n))
          case None    => str.length
        }
        if (start >= str.length) "" else str.substring(start, end)
      }
    }

    private def cast(x: Node, to: String): Node = to match {
      case "INT" | "INTEGER" | "BIGINT" => x match {
        case _ if numeric(x) => asLong(x)
        case _ => new LongNode {
          def long(f: Frame): Long = {
            val v = x.value(f)
            f.isNull = v.isNull
            if (f.isNull) 0L else SValue.asLong(v)
          }
        }
      }
      case "FLOAT" | "DOUBLE" | "DECIMAL" | "NUMERIC" => x match {
        case _ if numeric(x) => asDouble(x)
        case _ => new DoubleNode {
          def double(f: Frame): Double = {
            val v = x.value(f)
            f.isNull = v.isNull
            if (f.isNull) 0.0 else SValue.asDouble(v)
          }
        }
      }
      case "STRING" | "VARCHAR" | "CHAR" | "TIMESTAMP" | "DATE" => text(x)
      case "BOOL" | "BOOLEAN" => new BoolNode {
        def test(f: Frame): Int = {
          val v = x.value(f)
          if (v.isNull) Unknown else if (SValue.asBool(v)) True else False
        }
      }
      case other => boxed(f => if (x.value(f).isNull) SNull else throw new EvalException(s"unsupported CAST target $other"))
    }

    /** CASE: the first branch whose condition is TRUE gives the value, else
      * ELSE, else NULL. Typed when every value has one type.
      */
    private def caseWhen(bs: Seq[(BoolNode, Node)], otherwise: Option[Node]): Node = {
      val conds = bs.map(_._1).toArray
      val values = (bs.map(_._2) ++ otherwise).toArray
      val els = if (otherwise.isDefined) conds.length else -1
      /** The index in `values` of the value to return, -1 for NULL. */
      def pick(f: Frame): Int = {
        var i = 0
        while (i < conds.length && conds(i).test(f) != True) i += 1
        if (i < conds.length) i else els
      }
      if (values.forall(_.isInstanceOf[LongNode])) {
        val vs = values.map(_.asInstanceOf[LongNode])
        new LongNode {
          def long(f: Frame): Long = { val i = pick(f); if (i < 0) { f.isNull = true; 0L } else vs(i).long(f) }
        }
      } else if (values.forall(_.isInstanceOf[DoubleNode])) {
        val vs = values.map(_.asInstanceOf[DoubleNode])
        new DoubleNode {
          def double(f: Frame): Double = { val i = pick(f); if (i < 0) { f.isNull = true; 0.0 } else vs(i).double(f) }
        }
      } else if (values.forall(_.isInstanceOf[StrNode])) {
        val vs = values.map(_.asInstanceOf[StrNode])
        new StrNode { def str(f: Frame): String = { val i = pick(f); if (i < 0) null else vs(i).str(f) } }
      } else boxed(f => { val i = pick(f); if (i < 0) SNull else values(i).value(f) })
    }

    /** The adder of one aggregate's argument. Under a CASE, only the chosen
      * branch's value is evaluated, and it goes to the accumulator unboxed.
      */
    def adder(e: Expr): Adder = e match {
      case CaseWhen(bs, o) =>
        val conds = bs.map { case (c, _) => bool(expr(c), "not a boolean: ") }.toArray
        val adds = bs.map { case (_, v) => adder(v) }.toArray
        val els = o.map(adder).orNull
        new Adder {
          def add(f: Frame, acc: Acc): Unit = {
            var i = 0
            while (i < conds.length && conds(i).test(f) != True) i += 1
            if (i < conds.length) adds(i).add(f, acc)
            else if (els != null) els.add(f, acc)
          }
        }
      case _ => expr(e) match {
        case n: LongLit => new Adder { def add(f: Frame, acc: Acc): Unit = acc.addLong(n.x) }
        case n: DoubleLit => new Adder { def add(f: Frame, acc: Acc): Unit = acc.addDouble(n.x) }
        case n: LongNode => new Adder {
          def add(f: Frame, acc: Acc): Unit = { val v = n.long(f); if (!f.isNull) acc.addLong(v) }
        }
        case n: DoubleNode => new Adder {
          def add(f: Frame, acc: Acc): Unit = { val v = n.double(f); if (!f.isNull) acc.addDouble(v) }
        }
        case n => new Adder { def add(f: Frame, acc: Acc): Unit = acc.add(n.value(f)) }
      }
    }

    /** A projection of an aggregate query, over the aggregates' results. */
    def afterAggregates(e: Expr, aggs: Array[AggCall]): Array[SValue] => SValue = e match {
      case a: AggCall => val j = aggs.indexOf(a); r => r(j)
      case Lit(v)     => _ => v
      case Neg(x)     => val n = afterAggregates(x, aggs); r => negate(n(r))
      case Arith(op, l, r) =>
        val (a, b) = (afterAggregates(l, aggs), afterAggregates(r, aggs))
        v => { val x = a(v); arithValue(op, x, b(v)) }
      case Cast(x, to) => val n = afterAggregates(x, aggs); r => castValue(n(r), to)
      case Col(n) => _ => throw new EvalException(s"bare column '$n' in aggregate query (no GROUP BY in S3 Select)")
      case other  => _ => throw new EvalException(s"unsupported aggregate projection: $other")
    }

    /** The CSV text of one projected cell; a bare column is its raw cell. */
    def cell(e: Expr): Frame => String = e match {
      case Col(n) => colIndex.get(n) match {
        case Some(i) => f => f.row(i)
        case None    => _ => throw new NoSuchElementException(s"key not found: $n")
      }
      case _ => expr(e) match {
        case n: LongNode   => f => { val v = n.long(f); if (f.isNull) "" else java.lang.Long.toString(v) }
        case n: DoubleNode => f => { val v = n.double(f); if (f.isNull) "" else java.lang.Double.toString(v) }
        case n: StrNode    => f => { val s = n.str(f); if (s == null) "" else s }
        case n             => f => format(n.value(f))
      }
    }
  }

  // ------------------------------------------------------------- aggregates
  /** SUM/MIN/MAX/AVG/COUNT accumulator with SQL null semantics. A SUM stays
    * integral until it sees a value that is not a BIGINT.
    */
  private final class Acc(func: String) {
    private var count = 0L
    private var sumL = 0L
    private var sumD = 0.0
    private var sawDouble = false
    private var minMax: SValue = SNull
    private val sums = func == "SUM" || func == "AVG"

    def addCount(): Unit = count += 1

    def addLong(x: Long): Unit =
      if (sums) { count += 1; sumL += x; sumD += x } else add(SLong(x))

    def addDouble(x: Double): Unit =
      if (sums) { count += 1; sawDouble = true; sumD += x } else add(SDouble(x))

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
      case "COUNT"             => SLong(count)
      case "SUM" if count == 0 => SNull
      case "SUM"               => if (sawDouble) SDouble(sumD) else SLong(sumL)
      case "AVG" if count == 0 => SNull
      case "AVG"               => SDouble(sumD / count)
      case "MIN" | "MAX"       => minMax
    }
  }

  // ------------------------------------------------------------- boxed values
  /** A cell as a value of its column type; an empty cell of a non-string
    * column is NULL.
    */
  private def typed(cell: String, t: DataType): SValue =
    if (cell == null || cell.isEmpty) t match {
      case StringType => SString("")
      case _          => SNull
    }
    else t match {
      case LongType | IntegerType | ShortType => SLong(cell.toLong)
      case DoubleType | FloatType             => SDouble(cell.toDouble)
      case _: DecimalType                     => SDouble(cell.toDouble)
      case DateType | StringType              => SString(cell)
      case BooleanType                        => SBool(cell.toBoolean)
      case other => throw new EvalException(s"unsupported column type $other")
    }

  private def negate(v: SValue): SValue = v match {
    case SLong(x)   => SLong(-x)
    case SDouble(x) => SDouble(-x)
    case SNull      => SNull
    case other      => throw new EvalException(s"cannot negate $other")
  }

  private def arithValue(op: String, a: SValue, b: SValue): SValue = {
    if (a.isNull || b.isNull) return SNull
    (op, a, b) match {
      case ("%", _, _)             => SLong(Math.floorMod(SValue.asLong(a), SValue.asLong(b)))
      case ("/", _, _)             => SDouble(SValue.asDouble(a) / SValue.asDouble(b))
      case (_, SLong(x), SLong(y)) => op match {
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

  private def castValue(v: SValue, to: String): SValue =
    if (v.isNull) SNull
    else to match {
      case "INT" | "INTEGER" | "BIGINT"               => SLong(SValue.asLong(v))
      case "FLOAT" | "DOUBLE" | "DECIMAL" | "NUMERIC" => SDouble(SValue.asDouble(v))
      case "STRING" | "VARCHAR" | "CHAR"              => SString(SValue.asString(v))
      case "BOOL" | "BOOLEAN"                         => SBool(SValue.asBool(v))
      case "TIMESTAMP" | "DATE"                       => SString(SValue.asString(v))
      case other => throw new EvalException(s"unsupported CAST target $other")
    }

  private val Pow10: Array[Double] = Array.tabulate(23)(e => math.pow(10, e))

  /** `java.lang.Double.parseDouble(s)`, computed directly when `s` is a
    * plain decimal ("-123.45") whose digits, read as an integer, fit in 53
    * bits and whose fraction has at most 22 digits: the quotient of those two
    * exact doubles is then the correctly rounded value, the one `parseDouble`
    * returns (Clinger's fast path).
    */
  private[s3] def parseDouble(s: String): Double = {
    val n = s.length
    val negative = n > 0 && s.charAt(0) == '-'
    var i = if (negative) 1 else 0
    var m = 0L
    var digits = 0
    var dot = -1
    while (i < n) {
      val c = s.charAt(i)
      if (c >= '0' && c <= '9') { if (digits < 18) m = m * 10 + (c - '0'); digits += 1 }
      else if (c == '.' && dot < 0) dot = i
      else return java.lang.Double.parseDouble(s)
      i += 1
    }
    val frac = if (dot < 0) 0 else n - 1 - dot
    if (digits == 0 || digits > 18 || m > (1L << 53) || frac > 22) java.lang.Double.parseDouble(s)
    else { val v = m / Pow10(frac); if (negative) -v else v }
  }

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
  private def format(v: SValue): String = v match {
    case SLong(x)   => x.toString
    case SDouble(x) => x.toString
    case SString(s) => s
    case SBool(b)   => b.toString
    case SNull      => ""
  }
}
