package repro.truss

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.TestGraphs
import repro.tgraph.TemporalGraph
import repro.triangles.{DriverTriangles, IntColumn}

/** Trussness maintenance under edge insertion (substrate S7) against full
  * recomputation, over random insertion positions.
  */
class TrussInsertSpec extends AnyFunSuite {

  /** Remove one edge from g, recompute trussness, then re-insert via
    * TrussInsert and compare with the trussness of the full graph.
    */
  private def roundTrip(g: TemporalGraph, removeIdx: Int): Unit = {
    val removed = g.edges(removeIdx)
    val reduced = new TemporalGraph(g.edges.patch(removeIdx, Nil, 1))
    // build the full graph with the removed edge appended LAST so edge ids
    // of `reduced` are a prefix
    val full = new TemporalGraph(reduced.edges :+ removed)
    val tsFull = DriverTriangles.enumerate(full)
    val e0 = full.m - 1

    val trnReduced = TrussDecomposition.trussness(DriverTriangles.enumerate(reduced))
    val trn = IntColumn.wrap(java.util.Arrays.copyOf(trnReduced, full.m))
    trn(e0) = 2
    val upgraded = TrussInsert.maintain(tsFull, trn, e0)

    val expected = TrussDecomposition.trussness(tsFull)
    assert(trn.toArray.toSeq == expected.toSeq,
      s"removed=${removed.u}-${removed.v} diff=${
        expected.indices.filter(i => trn(i) != expected(i))
          .map(i => s"$i:(${trn(i)} vs ${expected(i)})").take(5)}")
    // upgraded set must be exactly the edges whose trussness changed
    val changed = trnReduced.indices.filter(i => trnReduced(i) != expected(i)).toSet
    assert(upgraded == changed, "reported upgrade set mismatch")
  }

  for (seed <- 0 until 12) {
    test(s"random graph seed=$seed: remove/re-insert every 3rd edge preserves trussness") {
      val g = TestGraphs.random(seed)
      for (i <- g.edges.indices by 3) roundTrip(g, i)
    }
  }

  test("running example: remove/re-insert every edge") {
    val g = TestGraphs.running
    for (i <- g.edges.indices) roundTrip(g, i)
  }

  test("inserting an edge with no triangles leaves trussness at 2") {
    val g = TemporalGraph((0, 1, Seq(1)), (2, 3, Seq(2)), (0, 4, Seq(3)))
    roundTrip(g, 2)
  }

  for (seed <- 20 until 26) {
    test(s"dense random graph seed=$seed: remove/re-insert high-truss edges") {
      val g = TestGraphs.random(seed, nV = 10, pEdge = 0.7)
      val ts = DriverTriangles.enumerate(g)
      val trn = TrussDecomposition.trussness(ts)
      val top = trn.indices.sortBy(-trn(_)).take(6)
      for (i <- top) roundTrip(g, i)
    }
  }

  test("stream insertion: build K6 edge by edge, trussness correct at every step") {
    val rnd = new Random(42)
    val allEdges = (for (u <- 0 until 6; v <- (u + 1) until 6) yield (u, v)).toArray
    val order = rnd.shuffle(allEdges.toSeq)
    var have = Vector.empty[(Int, Int)]
    for ((u, v) <- order) {
      val before = TemporalGraph(have.map { case (a, b) => (a, b, Seq(1)) }: _*)
      have = have :+ ((u, v))
      // append new edge last to keep prefix ids
      val full = new TemporalGraph(before.edges :+ repro.tgraph.TEdge(u, v, Array(1)))
      val tsF = DriverTriangles.enumerate(full)
      val trn = IntColumn.wrap(java.util.Arrays.copyOf(
        TrussDecomposition.trussness(DriverTriangles.enumerate(before)), full.m))
      trn(full.m - 1) = 2
      TrussInsert.maintain(tsF, trn, full.m - 1)
      assert(trn.toArray.toSeq == TrussDecomposition.trussness(tsF).toSeq, s"after inserting ($u,$v)")
    }
  }
}
