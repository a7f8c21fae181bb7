package repro.s3.datasource

import java.util
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.{Expression => VExpr, GeneralScalarExpression, Literal => VLiteral, NamedReference, Transform}
import org.apache.spark.sql.connector.expressions.aggregate._
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources
import org.apache.spark.sql.sources.{DataSourceRegister, Filter}
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.unsafe.types.UTF8String

import repro.s3._
import repro.s3.SelectAst._

/** `s3select` DataSourceV2: reads a partitioned table from the simulated
  * object store, pushing **filters**, **required columns**, **group-less
  * aggregates** and **LIMIT** into the storage engine — the Catalyst
  * counterpart of PushdownDB's use of S3 Select.
  *
  * Options:
  *  - `table`  (required) table name (object key prefix)
  *  - `bucket` (default `tpch`)
  *  - `pushdown` `on`/`off` — `off` forces the server-side baseline: every
  *    byte of the table is transferred and all predicates run in Spark
  *  - `extraWhere` — an S3 Select predicate string ANDed into every object
  *    scan; this is how Bloom-join ships its `SUBSTRING(...)` bit-array
  *    predicate (§V), which has no Catalyst `Filter` equivalent
  */
class S3SelectSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "s3select"

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = {
    val opts = S3SelectOptions(options)
    new S3Client(S3Store.global, opts.bucket).schemaOf(opts.table)
  }

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table =
    new S3SelectTable(schema, S3SelectOptions(new CaseInsensitiveStringMap(properties)))
}

final case class S3SelectOptions(table: String, bucket: String, pushdown: Boolean, extraWhere: Option[String])

object S3SelectOptions {
  def apply(options: CaseInsensitiveStringMap): S3SelectOptions = S3SelectOptions(
    table = Option(options.get("table")).getOrElse(
      throw new IllegalArgumentException("s3select: 'table' option is required")),
    bucket = Option(options.get("bucket")).getOrElse(S3Client.DefaultBucket),
    pushdown = Option(options.get("pushdown")).forall(v => v != "off" && v != "false"),
    extraWhere = Option(options.get("extraWhere")).filter(_.nonEmpty),
  )
}

final class S3SelectTable(schema: StructType, opts: S3SelectOptions) extends Table with SupportsRead {
  override def name(): String = s"s3select:${opts.bucket}/${opts.table}"
  override def schema(): StructType = schema
  override def capabilities(): util.Set[TableCapability] =
    util.EnumSet.of(TableCapability.BATCH_READ)
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new S3SelectScanBuilder(schema, opts)
}

final class S3SelectScanBuilder(tableSchema: StructType, opts: S3SelectOptions)
    extends ScanBuilder
    with SupportsPushDownFilters
    with SupportsPushDownRequiredColumns
    with SupportsPushDownAggregates
    with SupportsPushDownLimit {

  private var pushedPreds: Array[Filter] = Array.empty
  private var pushedWhere: Option[Expr] = None
  private var requiredSchema: StructType = tableSchema
  private var pushedAggs: Option[(Seq[Expr], StructType)] = None // (agg exprs, output schema)
  private var pushedLimit: Option[Long] = None

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    if (!opts.pushdown) return filters // server-side baseline: nothing pushed
    val (ok, residual) = filters.partition(f => FilterTranslator.translate(f).isDefined)
    pushedPreds = ok
    pushedWhere = ok.flatMap(FilterTranslator.translate).reduceOption(And.apply)
    residual
  }

  override def pushedFilters(): Array[Filter] = pushedPreds

  override def pruneColumns(required: StructType): Unit = {
    // Column pruning always happens at the compute side; with pushdown on it
    // also shrinks the bytes S3 returns (projection pushdown).
    requiredSchema = required
  }

  override def pushAggregation(aggregation: Aggregation): Boolean = {
    if (!opts.pushdown) return false
    if (aggregation.groupByExpressions().nonEmpty) return false // S3 Select: no GROUP BY
    val translated = aggregation.aggregateExpressions().toSeq.map(AggTranslator.translate)
    if (translated.exists(_.isEmpty)) return false
    val aggExprs = translated.flatten
    val outSchema = StructType(aggregation.aggregateExpressions().toSeq.zipWithIndex.map {
      case (f, i) => StructField(s"agg_$i", AggTranslator.outputType(f, tableSchema), nullable = true)
    })
    pushedAggs = Some((aggExprs.map(_._1), outSchema))
    true
  }

  override def pushLimit(limit: Int): Boolean = {
    if (!opts.pushdown || pushedAggs.nonEmpty) return false
    pushedLimit = Some(limit.toLong)
    true // per-object limit; Spark still applies the global limit
  }

  override def build(): Scan = {
    val extra = opts.extraWhere.map(SelectParser.parsePredicate)
    val where = (pushedWhere.toSeq ++ extra.toSeq).reduceOption(And.apply)
    pushedAggs match {
      case Some((aggs, outSchema)) =>
        val q = SelectQuery(aggs.map(a => Proj(a, None)), where, None)
        new S3SelectScan(opts, outSchema, Some(q))
      case None =>
        val cols =
          if (requiredSchema.isEmpty) Seq(Proj(Lit(SLong(1)), Some("one"))) // COUNT(*)-style scans
          else requiredSchema.fieldNames.toSeq.map(n => Proj(Col(n.toLowerCase), None))
        if (opts.pushdown) {
          val q = SelectQuery(cols, where, pushedLimit)
          new S3SelectScan(opts, requiredSchema, Some(q))
        } else {
          // Baseline: full-object GET; Spark evaluates everything itself.
          // The reader still outputs the pruned schema — project by index
          // after the (fully transferred) rows arrive at the compute side.
          val idx = requiredSchema.fieldNames.map(n =>
            tableSchema.fieldIndex(tableSchema.fieldNames.find(_.equalsIgnoreCase(n)).getOrElse(n)))
          new S3SelectScan(opts, requiredSchema, None, projIdx = Some(idx))
        }
    }
  }
}

/** @param query the S3 Select query, or None for whole-object GETs */
final class S3SelectScan(opts: S3SelectOptions, outSchema: StructType, query: Option[SelectQuery],
                         projIdx: Option[Array[Int]] = None)
    extends Scan with Batch {
  override def readSchema(): StructType = outSchema
  override def toBatch: Batch = this
  override def description(): String =
    query.fold(s"s3get ${opts.table}")(q => s"s3select ${SqlRender.render(q)}")

  override def planInputPartitions(): Array[InputPartition] = {
    val client = new S3Client(S3Store.global, opts.bucket)
    client.objectKeys(opts.table).map(k => S3SelectInputPartition(k): InputPartition).toArray
  }

  override def createReaderFactory(): PartitionReaderFactory = {
    // Render → string → parse round-trip: enforces the 256 KB limit on the
    // exact bytes that would go over the wire (extraWhere can be a large
    // Bloom-filter predicate). The readers run the query parsed here.
    val parsed = query.map(q => SelectParser.parse(SqlRender.render(q)))
    new S3SelectReaderFactory(opts, outSchema, parsed, projIdx)
  }
}

final case class S3SelectInputPartition(key: String) extends InputPartition

/** @param query the parsed S3 Select query, or None for whole-object GETs */
final class S3SelectReaderFactory(opts: S3SelectOptions, outSchema: StructType,
                                  query: Option[SelectQuery], projIdx: Option[Array[Int]])
    extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val key = partition.asInstanceOf[S3SelectInputPartition].key
    new S3SelectPartitionReader(opts, outSchema, query, projIdx, key)
  }
}

final class S3SelectPartitionReader(opts: S3SelectOptions, outSchema: StructType,
                                    query: Option[SelectQuery], projIdx: Option[Array[Int]],
                                    key: String)
    extends PartitionReader[InternalRow] {

  private lazy val rows: Iterator[Array[String]] = {
    val client = new S3Client(S3Store.global, opts.bucket)
    query match {
      case Some(q) => client.selectObject(key, q).iterator
      case None    => client.getObject(key).iterator // baseline: whole-object GET
    }
  }

  private var current: Array[String] = _

  override def next(): Boolean = {
    if (rows.hasNext) { current = rows.next(); true } else false
  }

  override def get(): InternalRow = RowCodecs.toInternalRow(current, outSchema, projIdx)
  override def close(): Unit = ()
}

/** String-cell → InternalRow conversion. */
object RowCodecs {

  def toInternalRow(cells: Array[String], schema: StructType,
                    projIdx: Option[Array[Int]] = None): InternalRow = {
    val values = new Array[Any](schema.size)
    var i = 0
    while (i < schema.size) {
      val cell = projIdx match {
        case Some(idx) => cells(idx(i))
        case None      => cells(i)
      }
      values(i) = toCatalyst(cell, schema.fields(i).dataType)
      i += 1
    }
    InternalRow.fromSeq(values.toSeq)
  }

  def toCatalyst(cell: String, t: DataType): Any =
    if (cell == null || cell.isEmpty) t match {
      case StringType => UTF8String.fromString("")
      case _          => null
    }
    else t match {
      case LongType    => if (cell.contains('.')) cell.toDouble.toLong else cell.toLong
      case IntegerType => if (cell.contains('.')) cell.toDouble.toInt else cell.toInt
      case DoubleType  => cell.toDouble
      case FloatType   => cell.toFloat
      case StringType  => UTF8String.fromString(cell)
      case DateType    => java.time.LocalDate.parse(cell).toEpochDay.toInt
      case BooleanType => cell.toBoolean
      case d: DecimalType =>
        org.apache.spark.sql.types.Decimal(new java.math.BigDecimal(cell), d.precision, d.scale)
      case other => throw new EvalException(s"unsupported read type $other")
    }
}

/** Catalyst V1 `Filter` → S3 Select AST. Untranslatable filters stay at the
  * compute side as residuals (Spark re-applies them), matching how real
  * connectors degrade.
  */
object FilterTranslator {

  def translate(f: Filter): Option[Expr] = f match {
    case sources.EqualTo(a, v)            => lit(v).map(Cmp("=", col(a), _))
    case sources.GreaterThan(a, v)        => lit(v).map(Cmp(">", col(a), _))
    case sources.GreaterThanOrEqual(a, v) => lit(v).map(Cmp(">=", col(a), _))
    case sources.LessThan(a, v)           => lit(v).map(Cmp("<", col(a), _))
    case sources.LessThanOrEqual(a, v)    => lit(v).map(Cmp("<=", col(a), _))
    case sources.In(a, vs) =>
      val ls = vs.toSeq.map(lit)
      if (ls.exists(_.isEmpty)) None else Some(In(col(a), ls.flatten, negated = false))
    case sources.IsNull(a)    => Some(IsNull(col(a), negated = false))
    case sources.IsNotNull(a) => Some(IsNull(col(a), negated = true))
    case sources.And(l, r)    => for (a <- translate(l); b <- translate(r)) yield And(a, b)
    case sources.Or(l, r)     => for (a <- translate(l); b <- translate(r)) yield Or(a, b)
    case sources.Not(x)       => translate(x).map(Not.apply)
    case sources.StringStartsWith(a, p) => like(a, p, p + "%")
    case sources.StringEndsWith(a, p)   => like(a, p, "%" + p)
    case sources.StringContains(a, p)   => like(a, p, "%" + p + "%")
    case _ => None
  }

  /** LIKE `pattern` for the literal text `p`. The parser has no `ESCAPE`,
    * so a `p` holding `%` or `_` cannot be matched literally and stays a
    * residual: Spark does not re-apply pushed filters.
    */
  private def like(a: String, p: String, pattern: String): Option[Expr] =
    if (p.exists(c => c == '%' || c == '_')) None
    else Some(Like(col(a), pattern, negated = false))

  private def col(name: String): Expr = Col(name.toLowerCase)

  def lit(v: Any): Option[Expr] = v match {
    case null                => Some(Lit(SNull))
    case x: Int              => Some(Lit(SLong(x.toLong)))
    case x: Long             => Some(Lit(SLong(x)))
    case x: Short            => Some(Lit(SLong(x.toLong)))
    case x: Double           => Some(Lit(SDouble(x)))
    case x: Float            => Some(Lit(SDouble(x.toDouble)))
    case x: String           => Some(Lit(SString(x)))
    case x: UTF8String       => Some(Lit(SString(x.toString)))
    case x: Boolean          => Some(Lit(SBool(x)))
    case x: java.sql.Date    => Some(Lit(SString(x.toLocalDate.toString)))
    case x: java.time.LocalDate => Some(Lit(SString(x.toString)))
    case x: java.math.BigDecimal => Some(Lit(SDouble(x.doubleValue)))
    case x: BigDecimal       => Some(Lit(SDouble(x.doubleValue)))
    case _ => None
  }
}

/** DSv2 aggregate → S3 Select AST (partial pushdown: one result row per
  * object; Spark plans the final merge aggregation).
  */
object AggTranslator {

  def translate(f: AggregateFunc): Option[(Expr, AggregateFunc)] = f match {
    case s: Sum if !s.isDistinct   => expr(s.column()).map(e => (AggCall("SUM", Some(e)), f))
    case m: Min                    => expr(m.column()).map(e => (AggCall("MIN", Some(e)), f))
    case m: Max                    => expr(m.column()).map(e => (AggCall("MAX", Some(e)), f))
    case c: Count if !c.isDistinct =>
      // partial COUNT(x) = COUNT(x) per object, merged by SUM — engine-side
      // COUNT already skips NULLs.
      expr(c.column()).map(e => (AggCall("COUNT", Some(e)), f))
    case _: CountStar              => Some((AggCall("COUNT", None), f))
    case _                         => None // AVG & friends stay at compute side
  }

  /** V2 expression tree (column refs, literals, arithmetic) → AST. */
  def expr(e: VExpr): Option[Expr] = e match {
    case ref: NamedReference if ref.fieldNames().length == 1 =>
      Some(Col(ref.fieldNames()(0).toLowerCase))
    case l: VLiteral[_] => FilterTranslator.lit(toScala(l))
    case g: GeneralScalarExpression =>
      g.name() match {
        case "+" | "-" | "*" | "/" | "%" if g.children().length == 2 =>
          for (a <- expr(g.children()(0)); b <- expr(g.children()(1)))
            yield Arith(g.name(), a, b)
        case _ => None
      }
    case _ => None
  }

  private def toScala(l: VLiteral[_]): Any = l.dataType match {
    case DateType => java.time.LocalDate.ofEpochDay(l.value.asInstanceOf[Int].toLong)
    case _        => l.value
  }

  /** Output type of the partial-agg column, matching Spark's expectations
    * for pushed-down aggregates over our schemas.
    */
  def outputType(f: AggregateFunc, table: StructType): DataType = f match {
    case _: CountStar => LongType
    case _: Count     => LongType
    case s: Sum       => exprType(s.column(), table) match {
      case LongType | IntegerType => LongType
      case _                      => DoubleType
    }
    case m: Min => exprType(m.column(), table)
    case m: Max => exprType(m.column(), table)
    case _      => DoubleType
  }

  private def exprType(e: VExpr, table: StructType): DataType = e match {
    case ref: NamedReference =>
      table.fields.find(_.name.equalsIgnoreCase(ref.fieldNames()(0))).map(_.dataType)
        .getOrElse(DoubleType)
    case l: VLiteral[_] => l.dataType
    case g: GeneralScalarExpression =>
      val ts = g.children().map(c => exprType(c, table))
      if (g.name() == "/") DoubleType
      else if (ts.forall(t => t == LongType || t == IntegerType)) LongType
      else DoubleType
    case _ => DoubleType
  }
}
