package repro.perfbench

import scala.util.Random
import repro.core._
import repro.core.maintenance.DynamicState
import repro.tgraph.TemporalGraphGen
import repro.triangles.DriverTriangles

/** Shows that the benchmark's answer checks turn corrupted answers into
  * failed ops: a TC answer with one edge dropped, a DC-Index that disagrees
  * with the table, a wrong triangle count, a skipped insertion and an
  * insertion that throws. Runs on the email-lite analog without Spark;
  * exits non-zero if any case goes the wrong way. */
object SelfTest {

  private var bad = 0
  private def expect(name: String, cond: Boolean): Unit = {
    println(s"${if (cond) "ok  " else "FAIL"} $name")
    if (!cond) bad += 1
  }

  def main(args: Array[String]): Unit = {
    val full = TemporalGraphGen.generate(TemporalGraphGen.byName("email-lite"))
    val (base, stream) = Inputs.split(full, 40, seed = 5)
    val ts = DriverTriangles.enumerate(base)
    val table = MBA.build(ts)
    val b = Built(ts, table, TCIndex.fromTable(table), DCIndex.fromTable(table))
    val rnd = new Random(9)
    val anchors = Anchored.anchors(table)
    val queries = Seq.fill(200)(Anchored.draw(rnd, table, anchors))
    def runQueries(tc: TCIndex, dc: DCIndex): Ledger = {
      val l = new Ledger(trace = false)
      queries.zipWithIndex.foreach { case ((e, k, d), i) =>
        QueryOp.run(l, i, "main", tc, dc, k, d, e, if (i % 10 == 0) Some(() => table.trussEdges(k, d)) else None)
      }
      l
    }

    expect("clean queries: no failures", runQueries(b.tc, b.dc).failed == 0)

    // drop the anchor of the first query from its TC row
    val (e0, k0, _) = queries.head
    val row = b.tc.rows(k0 - 3)
    val pos = row.edges.indexOf(e0)
    val droppedRow = new TCRow(k0, row.edges.patch(pos, Nil, 1), row.spans,
      row.offsets.map(o => if (o > pos) o - 1 else o))
    val droppedTc = new TCIndex(b.tc.rows.updated(k0 - 3, droppedRow), b.tc.m, b.tc.deltaMax)
    val l1 = runQueries(droppedTc, b.dc)
    expect(s"TC answer with one edge dropped: ${l1.failed} of ${l1.attempted} queries fail", l1.failed > 0)

    // a DC-Index built from a table where one edge lost a level
    val e1 = anchors.maxBy(table.trn(_))
    val shrunk = new KSpanTable(table.trn.updated(e1, table.trn(e1) - 1),
      table.spans.updated(e1, table.spans(e1).init), table.deltaMax)
    val wrongDc = DCIndex.fromTable(shrunk)
    val pairs = Checks.samplePairs(table, new Random(3)) :+ ((table.trn(e1), table.deltaMax))
    val driverCount = DriverTriangles.enumerate(base).size
    expect("clean build passes the build check", Checks.build(b, driverCount, pairs))
    expect("wrong DC-Index fails the build check", !Checks.build(b.copy(dc = wrongDc), driverCount, pairs))
    expect("wrong triangle count fails the build check", !Checks.build(b, driverCount + 1, pairs))

    val refTable = MBA.build(DriverTriangles.enumerate(full))
    def reinsert(s: Array[(Int, Int, Int)]): Ledger = {
      val l = new Ledger(trace = false)
      val st = DynamicState.fromGraph(base, ts, table)
      new InsertStream(l, "main", st, b.tc, new Random(4), rawQueries = 3, checkpoints = Set(20), s)
        .finish(() => (refTable, full))
      l
    }
    val clean = reinsert(stream)
    expect(s"clean reinsertion: ${clean.attempted} ops, no failures", clean.failed == 0 && clean.inserts.length == stream.length)
    val skipped = reinsert(stream.patch(30, Nil, 1))
    expect(s"skipped insertion: ${skipped.failed} failures", skipped.failed > 0)
    val throwing = reinsert(stream.patch(10, Seq((3, 3, 0)), 1))
    expect(s"throwing insertion fails it and the ${stream.length - 11} after it",
      throwing.failed == stream.length - 10)

    println(s"self-test: ${if (bad == 0) "all cases passed" else s"$bad case(s) failed"}")
    sys.exit(if (bad == 0) 0 else 1)
  }
}
