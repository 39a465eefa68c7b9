package repro.dist

import repro.SparkSpec
import repro.core.{MBA, OnlineQuery, TCIndex, TestGraphs}
import repro.tgraph.TemporalGraph
import repro.triangles.DriverTriangles

/** Distributed (k,δ)-truss peeling and the DataFrame-backed index (S9, S14)
  * against the driver implementations.
  */
class DistTrussSpec extends SparkSpec {

  private def distEdges(g: TemporalGraph, k: Int, d: Int): Set[(Int, Int)] =
    DistTruss.kdTruss(spark, TemporalGraph.toGroupedDF(spark, g), k, d)
      .select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1))).toSet

  private def driverEdges(g: TemporalGraph, k: Int, d: Int): Set[(Int, Int)] = {
    val ts = DriverTriangles.enumerate(g)
    OnlineQuery.query(ts, k, d).map(e => (g.edges(e).u, g.edges(e).v)).toSet
  }

  for (seed <- 0 until 4; (k, dFrac) <- Seq((3, 0.5), (4, 1.0))) {
    test(s"seed=$seed k=$k dFrac=$dFrac: distributed peeling equals driver Online-Query") {
      val g = TestGraphs.random(seed)
      val dm = DriverTriangles.enumerate(g).deltaMax
      val d = (dm * dFrac).toInt
      assert(distEdges(g, k, d) == driverEdges(g, k, d))
    }
  }

  test("running example: distributed (5,3)-truss is the tight 5-clique") {
    val g = TestGraphs.running
    assert(distEdges(g, 5, 3) == driverEdges(g, 5, 3))
    assert(distEdges(g, 5, 3).size == 10)
  }

  test("k=2 returns the input unchanged") {
    val g = TestGraphs.random(5)
    assert(distEdges(g, 2, 0).size == g.m)
  }

  test("infeasible k empties the graph") {
    val g = TestGraphs.random(6)
    assert(distEdges(g, 50, Int.MaxValue).isEmpty)
  }

  // --- DataFrame-backed TC-Index ---------------------------------------
  /** In-memory TC-Index query result as a comparable `(src, dst)` set. */
  private def inMemoryQueryEdges(idx: TCIndex, g: TemporalGraph, k: Int, delta: Int): Set[(Int, Int)] =
    idx.query(k, delta).map(e => (g.edges(e).u, g.edges(e).v)).toSet

  for (seed <- 0 until 3) {
    test(s"seed=$seed: IndexDF query equals in-memory TC-Query on sampled (k,δ)") {
      val g = TestGraphs.random(seed + 30)
      val ts = DriverTriangles.enumerate(g)
      val table = MBA.build(ts)
      val idx = TCIndex.fromTable(table)
      val df = IndexDF.tcToDF(spark, table, g).cache()
      try {
        for (k <- 3 to math.min(idx.kMax, 5); d <- Seq(0, ts.deltaMax / 2, ts.deltaMax)) {
          val viaDf = IndexDF.query(df, k, d).collect()
            .map(r => (r.getInt(0), r.getInt(1))).toSet
          assert(viaDf == inMemoryQueryEdges(idx, g, k, d), s"k=$k d=$d")
        }
      } finally df.unpersist()
    }
  }
}
