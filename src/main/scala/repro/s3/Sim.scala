package repro.s3

import java.util.concurrent.atomic.{AtomicLong, DoubleAdder}
import scala.collection.mutable

/** Per-phase IO/compute metric accumulation.
  *
  * A *phase* is one logical storage round of an operator: "build-side load",
  * "probe scan", "index lookup", "range GETs", … Operators wrap work in
  * [[Sim.inPhase]]; [[S3Client]], which the DataSource readers call too,
  * attributes bytes/requests to the current phase (single-JVM local mode,
  * benches run serially, so a thread-shared current phase is sufficient).
  */
final class PhaseAcc(val name: String) {
  val scannedBytes   = new AtomicLong
  val returnedBytes  = new AtomicLong
  val selectRequests = new AtomicLong
  val getRequests    = new AtomicLong
  /** Σ rows × per-row seconds of *server-side* work charged to this phase. */
  val localSeconds   = new DoubleAdder
  /** Bytes of CSV parsed at the server in this phase. */
  val localParsedBytes = new AtomicLong
  private val exprFactorBits = new AtomicLong(java.lang.Double.doubleToLongBits(1.0))

  def recordSelect(scanned: Long, returned: Long, factor: Double): Unit = {
    scannedBytes.addAndGet(scanned)
    returnedBytes.addAndGet(returned)
    selectRequests.incrementAndGet()
    var done = false
    while (!done) {
      val cur = exprFactorBits.get
      val v   = java.lang.Double.longBitsToDouble(cur)
      done = factor <= v ||
        exprFactorBits.compareAndSet(cur, java.lang.Double.doubleToLongBits(factor))
    }
  }

  def recordGet(returned: Long): Unit = {
    returnedBytes.addAndGet(returned)
    getRequests.incrementAndGet()
  }

  /** Charge server-side row work (hash agg, probe, heap…) to this phase. */
  def localWork(rows: Long, perRowSeconds: Double): Unit =
    localSeconds.add(rows * perRowSeconds)

  /** Charge server-side CSV→frame parsing of `bytes` to this phase. */
  def localParse(bytes: Long): Unit = localParsedBytes.addAndGet(bytes)

  def exprFactor: Double = java.lang.Double.longBitsToDouble(exprFactorBits.get)

  def view: PhaseView = PhaseView(
    name, scannedBytes.get, returnedBytes.get, selectRequests.get, getRequests.get,
    localSeconds.sum, localParsedBytes.get, exprFactor)
}

/** Immutable snapshot of a phase. */
final case class PhaseView(
    name: String,
    scannedBytes: Long,
    returnedBytes: Long,
    selectRequests: Long,
    getRequests: Long,
    localSeconds: Double,
    localParsedBytes: Long,
    exprFactor: Double,
) {
  def +(o: PhaseView): PhaseView = PhaseView(
    name, scannedBytes + o.scannedBytes, returnedBytes + o.returnedBytes,
    selectRequests + o.selectRequests, getRequests + o.getRequests,
    localSeconds + o.localSeconds, localParsedBytes + o.localParsedBytes,
    math.max(exprFactor, o.exprFactor))
}

object PhaseView {
  def empty(name: String): PhaseView = PhaseView(name, 0, 0, 0, 0, 0.0, 0, 1.0)
}

object Sim {
  private val phases = mutable.LinkedHashMap.empty[String, PhaseAcc]
  @volatile private var current: PhaseAcc = new PhaseAcc("default")

  def reset(): Unit = synchronized {
    phases.clear()
    current = new PhaseAcc("default")
  }

  def phase(name: String): PhaseAcc = synchronized {
    phases.getOrElseUpdate(name, new PhaseAcc(name))
  }

  /** Run `body` attributing all S3 traffic to phase `name`. */
  def inPhase[T](name: String)(body: => T): T = {
    val p    = phase(name)
    val prev = current
    current = p
    try body
    finally current = prev
  }

  def currentPhase: PhaseAcc = current

  def snapshot(): Vector[PhaseView] = synchronized { phases.values.map(_.view).toVector }

  def get(name: String): PhaseView = synchronized {
    phases.get(name).map(_.view).getOrElse(PhaseView.empty(name))
  }
}
