package repro.tgraph

import org.apache.spark.sql.functions.col
import repro.SparkSpec

/** Temporal graph substrate (S1): canonicalization, adjacency, round trips. */
class TemporalGraphSpec extends SparkSpec {

  test("toDF of the email-lite analog is a canonical temporal edge stream") {
    val df = TemporalGraph.toDF(spark, TemporalGraphGen.generate(TemporalGraphGen.byName("email-lite")))
    assert(df.columns.toSeq == Seq("src", "dst", "t"))
    assert(df.filter(col("src") >= col("dst")).count() == 0)
    assert(df.count() > 10000)
  }

  test("fromInteractions canonicalizes, dedupes and sorts timestamps") {
    val g = TemporalGraph.fromInteractions(Seq((5, 2, 9), (2, 5, 3), (2, 5, 9), (1, 1, 4)))
    assert(g.m == 1) // self loop dropped, (2,5) merged
    assert(g.edges(0).u == 2 && g.edges(0).v == 5)
    assert(g.edges(0).ts.toSeq == Seq(3, 9))
  }

  test("edgeId resolves both orientations; missing pairs give -1") {
    val g = TemporalGraph((1, 2, Seq(1)), (2, 3, Seq(2)))
    assert(g.edgeId(1, 2) == g.edgeId(2, 1))
    assert(g.edgeId(1, 2) >= 0)
    assert(g.edgeId(1, 3) == -1)
    assert(g.edgeId(7, 9) == -1)
  }

  test("adjacency is sorted by neighbor and covers both directions") {
    val g = TemporalGraph((0, 3, Seq(1)), (0, 1, Seq(1)), (1, 3, Seq(1)))
    val n0 = g.adj(0).map(g.nbrOf).toSeq
    assert(n0 == n0.sorted && n0 == Seq(1, 3))
    assert(g.adj(3).map(g.nbrOf).toSeq == Seq(0, 1))
    assert(g.degree(0) == 2 && g.degree(2) == 0)
  }

  test("counts: vertices, timestamps, avg tau") {
    val g = TemporalGraph((0, 1, Seq(1, 5)), (1, 2, Seq(5)), (0, 2, Seq(9)))
    assert(g.numVertices == 3)
    assert(g.numDistinctTimestamps == 3)
    assert(math.abs(g.avgTimestampsPerEdge - 4.0 / 3) < 1e-9)
    assert(g.tMin == 1 && g.tMax == 9)
  }

  test("empty graph degenerates safely") {
    val g = new TemporalGraph(Array.empty)
    assert(g.m == 0 && g.numVertices == 0 && g.numDistinctTimestamps == 0)
    assert(g.avgTimestampsPerEdge == 0.0)
  }

  test("TEdge invariants are enforced") {
    intercept[IllegalArgumentException](TEdge(3, 2, Array(1)))
    intercept[IllegalArgumentException](TEdge(1, 2, Array.empty))
  }
}
