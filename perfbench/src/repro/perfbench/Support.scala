package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Nearest-rank order statistics over unsorted samples (0 for no samples). */
object Stats {
  def pct(xs: collection.Seq[Double], p: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.toArray.sorted
      s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
    }
  def median(xs: collection.Seq[Double]): Double = pct(xs, 0.5)
  def mean(xs: collection.Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
  /** Samples ranked above the p-th percentile of `n` samples. */
  def beyond(n: Int, p: Double): Int = if (n == 0) 0 else n - math.ceil(p * n).toInt
}

/** Minimal JSON writer for the result, info and trace records. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.iterator.map(apply).mkString("[", ", ", "]")
    case other => quote(other.toString)
  }
  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}

/** Counters read from the JVM's management beans, outside the program. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** (collections, collection ms) summed over all collectors. */
  def gc(): (Long, Long) =
    (gcBeans.map(_.getCollectionCount).sum, gcBeans.map(_.getCollectionTime).sum)

  /** Used heap after a full collection. */
  def usedAfterGc(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / 1048576.0
}

/** Job and task totals from a listener on the benchmark's own session. */
final class SparkCounters extends SparkListener {
  @volatile private var jobs = 0L
  @volatile private var tasks = 0L
  @volatile private var cpuNs = 0L
  @volatile private var shuffleBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      cpuNs += m.executorCpuTime
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** (jobs, tasks, task CPU ns, shuffle bytes written) once every queued
    * event has been delivered. */
  def snapshot(sc: SparkContext): Array[Long] = {
    org.apache.spark.ListenerBusDrain(sc)
    Array(jobs, tasks, cpuNs, shuffleBytes)
  }
}

/** Span recording around calls into the program. [[NoSpans]] runs the body
  * and records nothing; [[Tracer]] keeps every span in memory. */
trait Spans {
  /** An op span: opens a new op id and parents the spans inside it. */
  def op[A](name: String, phase: String)(body: => A): A
  /** A child span of the enclosing span. */
  def apply[A](name: String)(body: => A): A
}

object NoSpans extends Spans {
  def op[A](name: String, phase: String)(body: => A): A = body
  def apply[A](name: String)(body: => A): A = body
}

/** In-memory spans: name, start, end, parent span and op id. The harness is
  * single-threaded, so the children of a span never overlap and its self
  * time is its duration minus the sum of its children's durations. */
final class Tracer extends Spans {
  private val names = ArrayBuffer.empty[String]
  private val opOf = ArrayBuffer.empty[Int]
  private val parentOf = ArrayBuffer.empty[Int]
  private val starts = ArrayBuffer.empty[Long]
  private val ends = ArrayBuffer.empty[Long]
  private val childNs = ArrayBuffer.empty[Long]
  private val opPhase = ArrayBuffer.empty[String]
  private var current = -1

  def op[A](name: String, phase: String)(body: => A): A = {
    opPhase += phase
    open(name, opPhase.length - 1, body)
  }
  def apply[A](name: String)(body: => A): A =
    open(name, if (current < 0) -1 else opOf(current), body)

  private def open[A](name: String, op: Int, body: => A): A = {
    val id = names.length
    names += name; opOf += op; parentOf += current
    starts += System.nanoTime(); ends += -1L; childNs += 0L
    val saved = current
    current = id
    try body
    finally {
      ends(id) = System.nanoTime()
      current = saved
      if (saved >= 0) childNs(saved) += ends(id) - starts(id)
    }
  }

  private def ids(name: String, phase: String): IndexedSeq[Int] =
    names.indices.filter(i => names(i) == name &&
      (phase == null || (opOf(i) >= 0 && opPhase(opOf(i)) == phase)))

  /** Durations in ms of the spans called `name` inside ops of `phase`
    * (of any phase when `phase` is null). */
  def durationsMs(name: String, phase: String = null): IndexedSeq[Double] =
    ids(name, phase).map(i => (ends(i) - starts(i)) / 1e6)

  /** Self times in µs of the spans called `name` inside ops of `phase`. */
  def selfUs(name: String, phase: String): IndexedSeq[Double] =
    ids(name, phase).map(i => (ends(i) - starts(i) - childNs(i)) / 1e3)

  /** One JSON object per span, times in µs from the first span. */
  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val t0 = if (starts.isEmpty) 0L else starts.min
    val w = new java.io.PrintWriter(new java.io.BufferedWriter(new java.io.FileWriter(file)))
    try names.indices.foreach { i =>
      val phase = if (opOf(i) >= 0) opPhase(opOf(i)) else ""
      w.println(Json(Map("name" -> names(i), "op" -> opOf(i), "phase" -> phase,
        "parent" -> parentOf(i), "start_us" -> (starts(i) - t0) / 1e3,
        "end_us" -> (ends(i) - t0) / 1e3, "self_us" -> (ends(i) - starts(i) - childNs(i)) / 1e3)))
    } finally w.close()
  }
}
