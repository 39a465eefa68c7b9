package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.triangles.DriverTriangles

/** Heavier randomized stress for §VI on larger graphs, including a locality
  * check: the verified region must stay a small fraction of the graph on
  * typical insertions (the whole point of the filters).
  */
class MaintenanceStressSpec extends AnyFunSuite {

  for (seed <- 0 until 6) {
    test(s"stress seed=$seed: 20-vertex graph, 20-interaction replay vs rebuild") {
      val g = TestGraphs.random(seed + 100, nV = 20, pEdge = 0.4, horizon = 60, maxStamps = 3)
      val ts = DriverTriangles.enumerate(g)
      val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
      val rnd = new Random(seed)
      val all = g.edges.flatMap(e => e.ts.map(t => (e.u, e.v, t)))
      for (_ <- 0 until 20) {
        val pick = rnd.nextInt(3)
        if (pick == 0) {
          // fresh timestamp on a random existing edge
          val e = rnd.nextInt(st.m)
          IndexMaintenance.insert(st, st.eU(e), st.eV(e), rnd.nextInt(60))
        } else if (pick == 1) {
          // new edge between random vertices (may collide -> timestamp case)
          val u = rnd.nextInt(20); var v = rnd.nextInt(20)
          if (u == v) v = (v + 1) % 20
          IndexMaintenance.insert(st, u, v, rnd.nextInt(60))
        } else {
          // duplicate of an original interaction
          val (u, v, t) = all(rnd.nextInt(all.length))
          IndexMaintenance.insert(st, u, v, t)
        }
        val rebuilt = MBA.build(st.snapshotTriangles)
        val got = st.snapshotTable
        assert(got.trn.toArray.toSeq == rebuilt.trn.toArray.toSeq, "trussness diverged")
        for (e <- 0 until got.m)
          assert(got.spans(e).toSeq == rebuilt.spans(e).toSeq, s"edge $e spans diverged")
        TestGraphs.assertMatchesEnumeration(st, s"stress seed=$seed")
      }
    }
  }

  test("locality: timestamp insertions verify only a bounded region") {
    val g = TestGraphs.random(200, nV = 24, pEdge = 0.35, horizon = 100, maxStamps = 2)
    val ts = DriverTriangles.enumerate(g)
    val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
    val rnd = new Random(1)
    var totalRegion = 0L
    var inserts = 0
    for (_ <- 0 until 30) {
      val e = rnd.nextInt(st.m)
      val r = IndexMaintenance.insert(st, st.eU(e), st.eV(e), rnd.nextInt(100))
      totalRegion += r.regionEdgesTotal
      inserts += 1
    }
    // each insertion may touch several k-levels, but the summed region must
    // stay well below scanning the whole k-span table every time
    val worstCase = inserts.toLong * st.m * 5
    assert(totalRegion < worstCase / 4, s"region too large: $totalRegion vs $worstCase")
  }

  test("monotonicity: k-spans never increase along an insertion stream") {
    val g = TestGraphs.random(300, nV = 16, pEdge = 0.5, horizon = 40)
    val ts = DriverTriangles.enumerate(g)
    val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
    val rnd = new Random(2)
    var prev = st.snapshotTable
    for (i <- 0 until 15) {
      val e = rnd.nextInt(st.m)
      IndexMaintenance.insert(st, st.eU(e), st.eV(e), rnd.nextInt(40))
      val cur = st.snapshotTable
      for (ed <- 0 until prev.m; k <- 3 to prev.trn(ed)) {
        assert(cur.span(ed, k) <= prev.span(ed, k), s"step $i edge $ed k=$k grew")
      }
      prev = cur
    }
  }
}
