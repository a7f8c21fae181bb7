package repro.s3

/** AST for the SQL subset S3 Select accepts (2019-era surface, as used by the
  * paper): single-table SELECT with projection, WHERE, LIMIT; aggregation
  * without GROUP BY; arithmetic, comparison, boolean logic, CAST, SUBSTRING,
  * CASE WHEN, LIKE, IN, BETWEEN. No joins, no GROUP BY, no ORDER BY, no
  * bitwise operators, no binary data — those restrictions force exactly the
  * operator decompositions PushdownDB implements.
  */
object SelectAst {

  sealed trait Expr
  final case class Col(name: String)                          extends Expr
  final case class Lit(v: SValue)                             extends Expr
  final case class Neg(e: Expr)                               extends Expr
  final case class Arith(op: String, l: Expr, r: Expr)        extends Expr // + - * / %
  final case class Cmp(op: String, l: Expr, r: Expr)          extends Expr // = <> < <= > >=
  final case class And(l: Expr, r: Expr)                      extends Expr
  final case class Or(l: Expr, r: Expr)                       extends Expr
  final case class Not(e: Expr)                               extends Expr
  final case class IsNull(e: Expr, negated: Boolean)          extends Expr
  final case class In(e: Expr, values: Seq[Expr], negated: Boolean) extends Expr
  final case class Like(e: Expr, pattern: String, negated: Boolean) extends Expr
  final case class Cast(e: Expr, to: String)                  extends Expr // INT, FLOAT, DECIMAL, STRING…
  final case class Substring(s: Expr, from: Expr, len: Option[Expr]) extends Expr
  final case class CaseWhen(branches: Seq[(Expr, Expr)], otherwise: Option[Expr]) extends Expr
  final case class AggCall(func: String, arg: Option[Expr])   extends Expr // SUM MIN MAX AVG COUNT; arg=None => COUNT(*)

  /** A projection item: expression plus optional alias; Star = `SELECT *`. */
  sealed trait Projection
  case object Star                                      extends Projection
  final case class Proj(e: Expr, alias: Option[String]) extends Projection

  final case class SelectQuery(
      projections: Seq[Projection],
      where: Option[Expr],
      limit: Option[Long],
  ) {
    /** True if any projection contains an aggregate call (engine then runs in
      * aggregate mode and returns exactly one row, as S3 Select does).
      */
    def isAggregate: Boolean = projections.exists {
      case Proj(e, _) => containsAgg(e)
      case Star       => false
    }
  }

  /** The direct subexpressions of `e`, left to right (a CASE gives each
    * branch's condition and value in turn, then its ELSE).
    */
  def children(e: Expr): Seq[Expr] = e match {
    case Col(_) | Lit(_)    => Nil
    case Neg(x)             => Seq(x)
    case Arith(_, l, r)     => Seq(l, r)
    case Cmp(_, l, r)       => Seq(l, r)
    case And(l, r)          => Seq(l, r)
    case Or(l, r)           => Seq(l, r)
    case Not(x)             => Seq(x)
    case IsNull(x, _)       => Seq(x)
    case In(x, vs, _)       => x +: vs
    case Like(x, _, _)      => Seq(x)
    case Cast(x, _)         => Seq(x)
    case Substring(s, f, l) => Seq(s, f) ++ l
    case CaseWhen(bs, o)    => bs.flatMap { case (c, v) => Seq(c, v) } ++ o
    case AggCall(_, a)      => a.toSeq
  }

  def containsAgg(e: Expr): Boolean = e match {
    case AggCall(_, _) => true
    case _             => children(e).exists(containsAgg)
  }

  /** Column names referenced by an expression — used by the columnar
    * (Parquet-lite) scan path to charge IO only for touched columns.
    */
  def referencedColumns(e: Expr): Set[String] = e match {
    case Col(n) => Set(n.toLowerCase)
    case _      => children(e).flatMap(referencedColumns).toSet
  }

  def referencedColumns(q: SelectQuery): Option[Set[String]] = {
    if (q.projections.contains(Star)) None // touches everything
    else {
      val proj = q.projections.flatMap { case Proj(e, _) => referencedColumns(e); case Star => Set.empty[String] }
      Some(proj.toSet ++ q.where.toSeq.flatMap(referencedColumns))
    }
  }

  /** Count of CASE WHEN branches across projections — drives the S3-side
    * compute slowdown model for the paper's S3-side group-by (§VI).
    */
  def caseTermCount(q: SelectQuery): Int = {
    def count(e: Expr): Int = (e match {
      case CaseWhen(bs, _) => bs.size
      case _               => 0
    }) + children(e).map(count).sum
    q.projections.map { case Proj(e, _) => count(e); case Star => 0 }.sum +
      q.where.map(count).getOrElse(0)
  }

  /** Count of SUBSTRING calls in the WHERE clause = number of Bloom-filter
    * hash probes per row — drives the Bloom expression slowdown model (§V).
    */
  def substringProbeCount(q: SelectQuery): Int = {
    def count(e: Expr): Int = (e match {
      case Substring(_, _, _) => 1
      case _                  => 0
    }) + children(e).map(count).sum
    q.where.map(count).getOrElse(0)
  }
}
