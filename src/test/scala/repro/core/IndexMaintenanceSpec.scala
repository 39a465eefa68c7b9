package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.tgraph.TemporalGraph
import repro.triangles.DriverTriangles

/** Dynamic index maintenance (§VI) must reproduce, edge for edge and k-span
  * for k-span, what an MBA rebuild from scratch computes — after every
  * single insertion of a stream mixing brand-new edges and new timestamps
  * on existing edges.
  */
class IndexMaintenanceSpec extends AnyFunSuite {

  private def freshState(g: TemporalGraph): DynamicState = {
    val ts = DriverTriangles.enumerate(g)
    DynamicState.fromGraph(g, ts, MBA.build(ts))
  }

  private def assertMatchesRebuild(st: DynamicState, ctx: String): Unit = {
    val rebuilt = MBA.build(st.snapshotTriangles)
    val got = st.snapshotTable
    assert(got.trn.toArray.toSeq == rebuilt.trn.toArray.toSeq, s"$ctx: trussness diverged")
    for (e <- 0 until got.m) {
      assert(got.spans(e).toSeq == rebuilt.spans(e).toSeq,
        s"$ctx: k-span row of edge $e (${st.eU(e)},${st.eV(e)}) " +
          s"got=${got.spans(e).toSeq} want=${rebuilt.spans(e).toSeq}")
    }
    TestGraphs.assertMatchesEnumeration(st, ctx)
    // the live table the indexes are refreshed from: the same values, kMax
    // kept current in place, deltaMax at most loosened
    val live = st.tableView
    assert(live.trn.toArray.toSeq == got.trn.toArray.toSeq, s"$ctx: live trussness diverged")
    assert((0 until got.m).forall(e => live.spans(e).sameElements(got.spans(e))),
      s"$ctx: live k-span rows diverged")
    assert(live.kMax == got.kMax, s"$ctx: live kMax ${live.kMax}, snapshot ${got.kMax}")
    assert(live.deltaMax >= got.deltaMax, s"$ctx: live deltaMax below the snapshot's")
  }

  /** Remove `n` random temporal interactions, then replay them through the
    * maintenance path, checking against rebuild after every insertion
    * (the paper's remove-and-reinsert evaluation protocol, §VII-D).
    */
  private def replay(seed: Int, g: TemporalGraph, n: Int): Unit = {
    val rnd = new Random(seed)
    val all = g.edges.flatMap(e => e.ts.map(t => (e.u, e.v, t)))
    val removedIdx = rnd.shuffle(all.indices.toList).take(n).toSet
    val kept = all.zipWithIndex.collect { case (x, i) if !removedIdx(i) => x }
    val removed = all.zipWithIndex.collect { case (x, i) if removedIdx(i) => x }
    // reduced graph must stay non-trivial: drop removals that empty an edge
    val keptPairs = kept.map(x => (x._1, x._2)).toSet
    val (replayable, dropped) = removed.partition(x => keptPairs.contains((x._1, x._2)))
    val base = TemporalGraph.fromInteractions(kept.toSeq)
    val st = freshState(base)
    var tc = TCIndex.fromTable(st.tableView)
    for ((u, v, t) <- replayable ++ dropped) {
      val report = IndexMaintenance.insert(st, u, v, t)
      assertMatchesRebuild(st, s"seed=$seed after insert ($u,$v,$t)")
      // the reported changed levels must be sufficient for an incremental
      // TC refresh to coincide with a full index rebuild
      tc = TCIndex.refreshRows(tc, st.tableView, report.changedLevels)
      val full = TCIndex.fromTable(st.tableView)
      for (k <- 3 to full.kMax; d <- Seq(0, full.deltaMax / 3, full.deltaMax)) {
        assert(tc.query(k, d).sorted.toSeq == full.query(k, d).sorted.toSeq,
          s"seed=$seed incremental TC row k=$k d=$d diverged after ($u,$v,$t)")
      }
    }
  }

  for (seed <- 0 until 10) {
    test(s"random graph seed=$seed: replay 12 removed interactions") {
      replay(seed, TestGraphs.random(seed), 12)
    }
  }

  for (seed <- 10 until 14) {
    test(s"dense random graph seed=$seed: replay 10 interactions") {
      replay(seed, TestGraphs.random(seed, nV = 10, pEdge = 0.7, horizon = 15), 10)
    }
  }

  test("running example: replay 15 interactions") {
    replay(99, TestGraphs.running, 15)
  }

  test("timestamp insertion on an existing edge tightens k-spans") {
    // loose triangle: mts 9; adding t=10 to (0,2) makes it tight
    val g = TemporalGraph((0, 1, Seq(10)), (1, 2, Seq(11)), (0, 2, Seq(1)))
    val st = freshState(g)
    val r = IndexMaintenance.insert(st, 0, 2, 10)
    assert(!r.newStaticEdge)
    assertMatchesRebuild(st, "tighten")
    assert(st.span(st.edgeId(0, 1), 3) == 1)
  }

  test("duplicate timestamp is a no-op") {
    val g = TemporalGraph((0, 1, Seq(10)), (1, 2, Seq(11)), (0, 2, Seq(10)))
    val st = freshState(g)
    val r = IndexMaintenance.insert(st, 0, 2, 10)
    assert(r.changedSpans == 0 && r.verifiedKs == 0)
    assertMatchesRebuild(st, "noop")
  }

  test("edge insertion that closes a new triangle") {
    val g = TemporalGraph((0, 1, Seq(5)), (1, 2, Seq(6)))
    val st = freshState(g)
    val r = IndexMaintenance.insert(st, 0, 2, 7)
    assert(r.newStaticEdge)
    assertMatchesRebuild(st, "close-triangle")
    assert(st.trn(st.edgeId(0, 2)) == 3)
    assert(st.span(st.edgeId(0, 2), 3) == 2)
  }

  test("edge insertion with a brand-new vertex") {
    val g = TemporalGraph((0, 1, Seq(5)), (1, 2, Seq(6)), (0, 2, Seq(7)))
    val st = freshState(g)
    IndexMaintenance.insert(st, 2, 9, 3)
    assertMatchesRebuild(st, "new-vertex")
    assert(st.trn(st.edgeId(2, 9)) == 2)
  }

  test("edge insertion that upgrades surrounding trussness (L_Ek exercise)") {
    // K5 minus one edge: re-adding it upgrades the whole clique to trussness 5
    val rows = for {
      u <- 0 until 5; v <- (u + 1) until 5
      if !(u == 0 && v == 4)
    } yield (u, v, Seq(u + 2 * v))
    val st = freshState(TemporalGraph(rows: _*))
    val r = IndexMaintenance.insert(st, 0, 4, 3)
    assert(r.newStaticEdge)
    assertMatchesRebuild(st, "K5 completion")
    assert((0 until st.m).forall(st.trn(_) == 5))
  }

  test("stream from an empty graph: 200 random insertions on 8 vertices") {
    val st = freshState(new TemporalGraph(Array.empty))
    val rnd = new Random(11)
    for (i <- 0 until 200) {
      val u = rnd.nextInt(8); val v = (u + 1 + rnd.nextInt(7)) % 8
      val t = rnd.nextInt(50)
      IndexMaintenance.insert(st, u, v, t)
      assertMatchesRebuild(st, s"empty-start step $i ($u,$v,$t)")
    }
    assert(st.m == 28 && st.tris.size == 56) // the stream completes K8
  }

  test("fromGraph leaves the triangles and table it was given unchanged") {
    val g = TestGraphs.random(5)
    val ts = DriverTriangles.enumerate(g)
    val table = MBA.build(ts)
    val (rowsBefore, tableBefore) = (TestGraphs.rows(ts), table.copy())
    val st = DynamicState.fromGraph(g, ts, table)
    val rnd = new Random(5)
    for (_ <- 0 until 40) {
      val u = rnd.nextInt(16); val v = (u + 1 + rnd.nextInt(15)) % 16
      IndexMaintenance.insert(st, u, v, rnd.nextInt(30))
    }
    assert(st.m > g.m && st.tableView.kMax > tableBefore.kMax) // the stream did grow the state
    assert(ts.m == g.m && TestGraphs.rows(ts) == rowsBefore)
    assert(table == tableBefore && table.kMax == tableBefore.kMax)
  }

  test("a negative timestamp is rejected before the state changes") {
    // with t = -1 the new triangle's mts would be Int.MaxValue - (-1), which overflows
    val st = freshState(TemporalGraph((0, 1, Seq(Int.MaxValue)), (1, 2, Seq(0))))
    val before = st.snapshotTable
    intercept[IllegalArgumentException](IndexMaintenance.insert(st, 0, 2, -1))
    intercept[IllegalArgumentException](IndexMaintenance.insert(st, -3, 2, 5))
    assert(st.m == 2 && st.tris.size == 0 && st.edgeId(0, 2) == -1)
    assert(st.snapshotTable == before)
  }

  test("stream: grow two overlapping cliques edge by edge from scratch-ish base") {
    val base = TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)), (0, 2, Seq(3)))
    val st = freshState(base)
    val rnd = new Random(7)
    val extra = (for {
      u <- 0 until 6; v <- (u + 1) until 6
      if base.edgeId(u, v) == -1
    } yield (u, v)) ++ Seq((3, 6), (4, 6), (5, 6))
    for (((u, v), i) <- rnd.shuffle(extra).zipWithIndex) {
      IndexMaintenance.insert(st, u, v, 2 * i + 1)
      assertMatchesRebuild(st, s"stream step $i ($u,$v)")
    }
    // densify with second timestamps
    for (((u, v), i) <- rnd.shuffle(extra).zipWithIndex.take(8)) {
      IndexMaintenance.insert(st, u, v, 40 + i)
      assertMatchesRebuild(st, s"densify step $i ($u,$v)")
    }
  }
}
