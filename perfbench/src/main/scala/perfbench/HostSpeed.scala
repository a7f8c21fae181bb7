package perfbench

import java.util.concurrent.{Callable, Executors, ThreadFactory}

/** How fast the host runs right now, measured by timing a fixed piece of CPU
  * work between operations.
  *
  * The host is a few vCPUs of a shared machine. On a 4-vCPU VM, an idle
  * single-threaded loop switches between two speeds about 1.75x apart every
  * few seconds, and each vCPU switches on its own. A 20-second section of
  * operations therefore reads 15-25% faster or slower from one run to the
  * next, whatever the program does. The kernel uses no code of the system
  * under test and runs on one thread per core, as Spark's `local[*]` tasks
  * do, so it sees the same slow cores a Spark stage waits for.
  */
object HostSpeed {

  /** The kernel's time on a 4-vCPU 2.1 GHz Xeon VM at its faster speed.
    * Wall-clock figures are scaled to this speed.
    */
  val ReferenceMs = 13.0

  private val threads = Runtime.getRuntime.availableProcessors
  private val pool = Executors.newFixedThreadPool(threads, new ThreadFactory {
    def newThread(r: Runnable): Thread = { val t = new Thread(r, "perfbench-hostspeed"); t.setDaemon(true); t }
  })
  private val data = Array.tabulate(1 << 16)(i => (i * 2654435761L) ^ (i.toLong << 7))
  private val rounds = 60
  @volatile private var sink = 0L

  /** Time one run of the kernel, in ms: `threads` tasks that each hash
    * `data` (512 KB, cache-resident) `rounds` times.
    */
  def sampleMs(): Double = {
    val t0 = System.nanoTime
    val tasks = (0 until threads).map(k => pool.submit(new Callable[Long] {
      def call(): Long = {
        var h = k.toLong
        var r = 0
        while (r < rounds) {
          var i = 0
          while (i < data.length) { h = h * 31 + data(i) ^ (h >>> 17); i += 1 }
          r += 1
        }
        h
      }
    }))
    sink += tasks.map(_.get).sum
    (System.nanoTime - t0) / 1e6
  }

  /** Compile the kernel before it is timed. */
  def warmUp(): Unit = (1 to 30).foreach(_ => sampleMs())
}
