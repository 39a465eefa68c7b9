package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import scala.util.control.NonFatal
import repro.core._
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.core.maintenance.IndexMaintenance.InsertReport
import repro.tgraph.TemporalGraph

/** Answer checks. They run outside every timer. */
object Checks {

  /** Order-independent checksum of an edge set: the sum of mixed ids. */
  def checksum(a: Array[Int]): Long = {
    var s = 0L
    var i = 0
    while (i < a.length) {
      var z = (a(i).toLong + 1) * 0x9E3779B97F4A7C15L
      z = (z ^ (z >>> 31)) * 0xBF58476D1CE4E5B9L
      s += z ^ (z >>> 29)
      i += 1
    }
    s
  }

  def contains(a: Array[Int], e: Int): Boolean = {
    var i = 0
    while (i < a.length) { if (a(i) == e) return true; i += 1 }
    false
  }

  /** TC and DC answers agree on size and checksum and both hold `anchor`. */
  def answersAgree(tc: Array[Int], dc: Array[Int], anchor: Int): Boolean =
    tc.length == dc.length && checksum(tc) == checksum(dc) &&
      contains(tc, anchor) && contains(dc, anchor)

  /** `a` holds exactly the edges of the ascending array `sortedRef`. */
  def sameSet(a: Array[Int], sortedRef: Array[Int]): Boolean = {
    val s = a.clone()
    java.util.Arrays.sort(s)
    java.util.Arrays.equals(s, sortedRef)
  }

  /** The maintained state holds the graph `refG` and the k-span table `ref`
    * of that graph. Edge ids differ between the two (edges are appended as
    * they arrive), so edges are matched through their endpoints. */
  def stateMatches(st: DynamicState, ref: KSpanTable, refG: TemporalGraph): Boolean = {
    val got = st.snapshotTable
    got.m == ref.m && got.deltaMax == ref.deltaMax && (0 until got.m).forall { e =>
      val r = refG.edgeId(st.eU(e), st.eV(e))
      r >= 0 && got.trn(e) == ref.trn(r) &&
        java.util.Arrays.equals(got.spans(e), ref.spans(r)) &&
        java.util.Arrays.equals(st.eTs(e), refG.edges(r).ts)
    }
  }

  /** A seeded (k, δ) sample for build checks: six anchored pairs and six
    * uniform over `[3, kmax] × [0, δmax]`, most of which are empty. */
  def samplePairs(t: KSpanTable, rnd: Random): Seq[(Int, Int)] = {
    val anchors = Anchored.anchors(t)
    val anchored = Seq.fill(6) { val (_, k, d) = Anchored.draw(rnd, t, anchors); (k, d) }
    anchored ++ Seq.fill(6)((3 + rnd.nextInt(t.kMax - 2), rnd.nextInt(t.deltaMax + 1)))
  }

  /** A build is right when its triangle count equals the driver
    * enumerator's, TC == DC == the table's truss on every sampled pair, and
    * the index-free query agrees on the first two pairs. */
  def build(b: Built, driverTriangles: Int, pairs: Seq[(Int, Int)]): Boolean =
    b.ts.size == driverTriangles && pairs.forall { case (k, d) =>
      val ref = b.table.trussEdges(k, d)
      sameSet(b.tc.query(k, d), ref) && sameSet(b.dc.query(k, d), ref)
    } && pairs.take(2).forall { case (k, d) =>
      java.util.Arrays.equals(OnlineQuery.query(b.ts, k, d), b.table.trussEdges(k, d))
    }

  /** The maintained k-span table equals an MBA rebuild from its own triangles. */
  def stateSelfConsistent(st: DynamicState): Boolean =
    MBA.build(st.snapshotTriangles) == st.snapshotTable
}

/** Anchored (k, δ) queries: for an edge `e` with `trn(e) ≥ 3`, `k` is uniform
  * in `[3, trn(e)]` and `δ = kspan(e, k)` plus a log-uniform slack in
  * `[0, δmax − kspan(e, k)]`, so every answer is non-empty and contains `e`. */
object Anchored {
  def pick(rnd: Random, trn: Int, span: Int => Int, deltaMax: Int): (Int, Int) = {
    val k = 3 + rnd.nextInt(trn - 2)
    val base = span(k)
    val room = math.max(0, deltaMax - base)
    val slack = (math.exp(rnd.nextDouble() * math.log1p(room.toDouble)) - 1.0).toInt
    (k, base + math.min(room, math.max(0, slack)))
  }

  /** Edges that can anchor a query. */
  def anchors(t: KSpanTable): Array[Int] = (0 until t.m).filter(t.trn(_) >= 3).toArray

  /** A uniform anchor among `anchors` of table `t`, and a pair on it. */
  def draw(rnd: Random, t: KSpanTable, anchors: Array[Int]): (Int, Int, Int) = {
    val e = anchors(rnd.nextInt(anchors.length))
    val (k, d) = pick(rnd, t.trn(e), t.span(e, _), t.deltaMax)
    (e, k, d)
  }
}

final case class QuerySample(tcNs: Long, dcNs: Long, edges: Int, traced: Boolean,
                             tcAlloc: Long, dcAlloc: Long, pathNodes: Int)

final case class InsertSample(ns: Long, traced: Boolean, report: InsertReport, rowsRebuilt: Int)

/** One run's op counts, samples and spans. In a traced run every other op
  * of each kind is traced; the untraced ones give the tracing overhead. */
final class Ledger(val trace: Boolean) {
  val tracer = new Tracer
  var attempted = 0L
  var failed = 0L
  val queries = ArrayBuffer.empty[QuerySample]
  val inserts = ArrayBuffer.empty[InsertSample]

  def record(ok: Boolean): Unit = { attempted += 1; if (!ok) failed += 1 }

  /** Whether op number `i` of its kind is traced. */
  def traced(i: Int): Boolean = trace && i % 2 == 0
  def spans(traced: Boolean): Spans = if (traced) tracer else NoSpans
}

object QueryOp {

  /** Nodes on the DC-Index path that answers (k, δ), read from the public
    * lookup table and parent links. */
  def dcPathNodes(dc: DCIndex, k: Int, delta: Int): Int = {
    if (k <= 2 || k > dc.kMax) return 0
    val row = dc.lookup(k - 3)
    var found = -1
    var i = 0
    while (i < row.length && row(i)._1 <= delta) { found = i; i += 1 }
    if (found < 0) return 0
    var n = 0
    var cur = row(found)._2
    while (cur >= 0) { n += 1; cur = dc.nodes(cur).parent }
    n
  }

  /** Runs (k, δ) on both indexes, timing each call, and checks the answers:
    * they agree and contain `anchor` and, when `ref` is given, equal it. */
  def run(l: Ledger, i: Int, phase: String, tc: TCIndex, dc: DCIndex, k: Int, delta: Int,
          anchor: Int, ref: Option[() => Array[Int]]): Unit = {
    val traced = l.traced(i)
    val sp = l.spans(traced)
    var tcAns: Array[Int] = null
    var dcAns: Array[Int] = null
    var tcNs = 0L; var dcNs = 0L; var tcAlloc = 0L; var dcAlloc = 0L
    sp.op("op.query", phase) {
      val a0 = if (traced) Jvm.allocatedBytes() else 0L
      val t0 = System.nanoTime()
      tcAns = sp("core.tc_query")(tc.query(k, delta))
      tcNs = System.nanoTime() - t0
      val a1 = if (traced) Jvm.allocatedBytes() else 0L
      val t1 = System.nanoTime()
      dcAns = sp("core.dc_query")(dc.query(k, delta))
      dcNs = System.nanoTime() - t1
      if (traced) { dcAlloc = Jvm.allocatedBytes() - a1; tcAlloc = a1 - a0 }
    }
    val ok = Checks.answersAgree(tcAns, dcAns, anchor) &&
      ref.forall(r => Checks.sameSet(tcAns, r()))
    l.record(ok)
    val path = if (traced) dcPathNodes(dc, k, delta) else 0
    l.queries += QuerySample(tcNs, dcNs, tcAns.length, traced, tcAlloc, dcAlloc, path)
  }
}

/** The seeded stream of anchored queries of one run. Each [[run]] draws
  * its queries on the index it is given; the draws and the op count carry
  * over from one call to the next. */
final class QueryStream(l: Ledger, phase: String, rnd: Random) {
  private var i = 0

  /** Anchored queries on `b` while `more`. */
  def run(b: Built, more: => Boolean): Unit = {
    val anchors = Anchored.anchors(b.table)
    while (more) {
      val (e, k, d) = Anchored.draw(rnd, b.table, anchors)
      val ref = if (i % Workloads.FullCheckEvery == 0) Some(() => b.table.trussEdges(k, d)) else None
      QueryOp.run(l, i, phase, b.tc, b.dc, k, d, e, ref)
      i += 1
    }
  }

  /** The next `n` queries, on `b`. */
  def take(b: Built, n: Int): Unit = {
    val end = i + n
    run(b, i < end)
  }
}

/** Reinserts a stream of interactions one at a time, in one or more
  * [[step]]s. Each insertion is timed from the `IndexMaintenance.insert`
  * call until both indexes answer for the new graph: the insert,
  * `tableView`, the TC row refresh and the DC rebuild. After each one,
  * `rawQueries` anchored queries on the inserted edge read the new indexes.
  *
  * Correctness: an insertion that throws fails, and so does every later
  * op, because the state may be half-mutated. At `checkpoints` the state
  * must equal an MBA rebuild of its own triangles, and at the end it must
  * equal `ref`, the table of the graph `refG` the stream completes; a
  * failed comparison fails every insertion since the last one that passed.
  */
final class InsertStream(l: Ledger, phase: String, st: DynamicState, tc0: TCIndex,
                         rnd: Random, rawQueries: Int, checkpoints: Set[Int],
                         stream: Array[(Int, Int, Int)]) {
  private var tc: TCIndex = tc0
  private var dc: DCIndex = null
  private var queryOps = 0
  private var next = 0
  private var broken = false
  private var unverified = 0L // insertions recorded ok since the last passing check

  /** Reinserts the next `n` interactions (fewer at the end of the stream). */
  def step(n: Int): Unit = {
    val end = math.min(stream.length, next + n)
    while (next < end) {
      val i = next
      next += 1
      if (broken) l.record(false)
      else {
        val (u, v, t) = stream(i)
        if (!insertOne(i, u, v, t)) broken = true
        else {
          unverified += 1
          if (checkpoints(i + 1)) {
            if (Checks.stateSelfConsistent(st)) unverified = 0
            else { l.failed += unverified; broken = true }
          }
        }
      }
    }
  }

  /** Reinserts what is left of the stream, then compares the state with `ref`. */
  def finish(ref: () => (KSpanTable, TemporalGraph)): Unit = {
    step(stream.length - next)
    if (!broken) {
      val (t, g) = ref()
      if (!Checks.stateMatches(st, t, g)) l.failed += unverified
    }
  }

  private def insertOne(i: Int, u: Int, v: Int, t: Int): Boolean = {
    val traced = l.traced(i)
    val sp = l.spans(traced)
    val prevTc = tc
    var report: InsertReport = null
    var view: KSpanTable = null
    val t0 = System.nanoTime()
    try {
      sp.op("op.insert", phase) {
        report = sp("maint.insert")(IndexMaintenance.insert(st, u, v, t))
        view = sp("maint.table_view")(st.tableView)
        tc = sp("core.tc_refresh")(TCIndex.refreshRows(tc, view, report.changedLevels))
        dc = sp("core.dc_rebuild")(DCIndex.fromTable(view))
      }
    } catch {
      case NonFatal(ex) =>
        System.err.println(s"perfbench: insertion $i ($u, $v, $t) failed: $ex")
        l.record(false)
        return false
    }
    val ns = System.nanoTime() - t0
    l.record(true)
    val rebuilt = tc.rows.indices.count(r => r >= prevTc.rows.length || !(tc.rows(r) eq prevTc.rows(r)))
    l.inserts += InsertSample(ns, traced, report, rebuilt)

    val e = st.edgeId(u, v)
    if (st.trn(e) >= 3) {
      var j = 0
      while (j < rawQueries) {
        val (k, d) = Anchored.pick(rnd, st.trn(e), st.span(e, _), view.deltaMax)
        val ref = if (j == 0 && i % 25 == 0) Some(() => view.trussEdges(k, d)) else None
        QueryOp.run(l, queryOps, phase, tc, dc, k, d, e, ref)
        queryOps += 1
        j += 1
      }
    }
    true
  }
}
