package repro.triangles

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{MBA, TestGraphs}
import repro.dist.GraphXCheck
import repro.tgraph.{TemporalGraph, TemporalGraphGen}

/** Triangle enumeration + mts (S4): the parallel build enumerator and the
  * Spark SQL join against the sequential driver reference, the join also
  * against a DuckDB SQL oracle and GraphX triangle counting.
  */
class TriangleEnumSpec extends SparkSpec {

  private def sparkTris(g: TemporalGraph): Set[(Int, Int, Int, Int)] =
    TriangleEnum.triangles(TemporalGraph.toGroupedDF(spark, g))
      .collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2), r.getInt(3))).toSet

  private def driverTris(g: TemporalGraph): Set[(Int, Int, Int, Int)] = {
    val ts = DriverTriangles.enumerate(g)
    (0 until ts.size).map { i =>
      // edge ids back to vertex triple a < b < c
      val vs = Array(ts.e1(i), ts.e2(i), ts.e3(i)).flatMap(e => Array(g.edges(e).u, g.edges(e).v))
        .distinct.sorted
      (vs(0), vs(1), vs(2), ts.mts(i))
    }.toSet
  }

  for (seed <- 0 until 6) {
    test(s"random graph seed=$seed: Spark enumeration equals driver reference (with mts)") {
      val g = TestGraphs.random(seed)
      assert(sparkTris(g) == driverTris(g))
    }
  }

  test("running example: Spark and driver agree") {
    assert(sparkTris(TestGraphs.running) == driverTris(TestGraphs.running))
  }

  test("oracle: triangle-with-mts result matches DuckDB SQL over exploded temporal edges") {
    val g = TestGraphs.random(11, nV = 12, pEdge = 0.4)
    val te = TemporalGraph.toDF(spark, g)
    val edges = TemporalGraph.toGroupedDF(spark, g)
    val sparkDf = TriangleEnum.triangles(edges)
      .select(col("a"), col("b"), col("c"), col("mts"))
    val sql =
      """SELECT e1.src AS a, e1.dst AS b, e2.dst AS c,
        |       min(greatest(CAST(e1.t AS INT), CAST(e2.t AS INT), CAST(e3.t AS INT)) -
        |           least(CAST(e1.t AS INT), CAST(e2.t AS INT), CAST(e3.t AS INT))) AS mts
        |FROM te e1
        |JOIN te e2 ON e1.dst = e2.src
        |JOIN te e3 ON e1.src = e3.src AND e2.dst = e3.dst
        |GROUP BY e1.src, e1.dst, e2.dst
        |""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "te" -> te)
  }

  test("oracle: static triangle count matches DuckDB") {
    val g = TestGraphs.random(12, nV = 14, pEdge = 0.45)
    val edges = TemporalGraph.toGroupedDF(spark, g)
    val sparkDf = TriangleEnum.triangles(edges).agg(count(lit(1)).as("tri_cnt"))
    val sql =
      """SELECT count(*) AS tri_cnt
        |FROM e e1 JOIN e e2 ON e1.dst = e2.src
        |JOIN e e3 ON e1.src = e3.src AND e2.dst = e3.dst""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql,
      "e" -> edges.select(col("src"), col("dst")))
  }

  for (seed <- Seq(3, 7)) {
    test(s"graphx cross-check seed=$seed: vertex triangle counts sum to 3·|Δ|") {
      val g = TestGraphs.random(seed, nV = 16, pEdge = 0.4)
      val expect = DriverTriangles.enumerate(g).size.toLong
      assert(GraphXCheck.totalTriangles(spark, g) == expect)
    }
  }

  test("mts histogram covers every triangle exactly once") {
    val g = TestGraphs.random(21, nV = 16, pEdge = 0.4)
    val hist = TriangleEnum.mtsHistogram(TemporalGraph.toGroupedDF(spark, g)).collect()
    assert(hist.map(_.getLong(1)).sum == DriverTriangles.enumerate(g).size)
  }

  test("generator analog graph: the parallel build enumerator builds a consistent TriangleSet") {
    val g = TemporalGraphGen.generate(
      TemporalGraphGen.GenCfgForTest.copy(seed = 5))
    val viaSpark = TriangleEnum.triangleSet(spark, g)
    val viaDriver = DriverTriangles.enumerate(g)
    assert(viaSpark.size == viaDriver.size)
    assert(TestGraphs.rows(viaSpark) == TestGraphs.rows(viaDriver))
  }

  /** The build enumerator on `threads` threads, checked against the
    * sequential reference: same `(e1, e2, e3, mts)` rows, same MBA table.
    */
  private def assertMatchesDriver(g: TemporalGraph, threads: Int = 4): TriangleSet = {
    val got = TriangleEnum.forwardTriangles(g, threads)
    val ref = DriverTriangles.enumerate(g)
    assert(got.size == ref.size)
    assert(TestGraphs.rows(got) == TestGraphs.rows(ref))
    assert(MBA.build(got) == MBA.build(ref))
    got
  }

  private def analog(name: String): TemporalGraph =
    TemporalGraphGen.generate(TemporalGraphGen.byName(name))

  for (seed <- 0 until 6) {
    test(s"random graph seed=$seed: parallel build enumerator equals driver reference, same MBA table") {
      assertMatchesDriver(TestGraphs.random(seed))
    }
  }

  test("running example: parallel build enumerator equals driver reference, same MBA table") {
    assertMatchesDriver(TestGraphs.running)
  }

  for (name <- Seq("email-lite", "wikitalk-lite", "stackoverflow-lite")) {
    test(s"$name analog: parallel build enumerator equals driver reference, same MBA table") {
      val ts = assertMatchesDriver(analog(name))
      assert(ts.columns._1.length == ts.size, "column capacity beyond the triangle count")
    }
  }

  test("parallel build enumerator: empty, star, path and K8") {
    for (threads <- Seq(1, 3)) {
      assert(assertMatchesDriver(new TemporalGraph(Array.empty), threads).size == 0)
      val star = TemporalGraph((1 to 10).map(v => (0, v, Seq(v))): _*)
      assert(assertMatchesDriver(star, threads).size == 0)
      val path = TemporalGraph((0 until 10).map(v => (v, v + 1, Seq(v))): _*)
      assert(assertMatchesDriver(path, threads).size == 0)
      val k8 = TemporalGraph((for (u <- 0 until 8; v <- u + 1 until 8) yield (u, v, Seq(u * v, u + v))): _*)
      val ts = assertMatchesDriver(k8, threads)
      assert(ts.size == 56)
      assert(ts.columns._1.length == ts.size)
    }
  }

  test("parallel build enumerator: vertex ids with gaps spanning many chunks") {
    val g = TemporalGraph(
      (0, 1000, Seq(1)), (1000, 5000, Seq(2)), (0, 5000, Seq(3, 8)),
      (5000, 70000, Seq(4)), (0, 70000, Seq(9)), (70000, 70001, Seq(5)))
    val ts = assertMatchesDriver(g, threads = 3)
    assert(ts.size == 2)
  }

  test("parallel build enumerator: tid order is the same for 1, 2, 3 and 5 threads") {
    val g = analog("stackoverflow-lite")
    val cols = Seq(1, 2, 3, 5).map { t =>
      val ts = TriangleEnum.forwardTriangles(g, t)
      assert(ts.columns._1.length == ts.size, s"$t threads: column capacity beyond the triangle count")
      ts.columns
    }
    for ((c, t) <- cols.zip(Seq(1, 2, 3, 5)).tail) {
      assert(c._1.sameElements(cols.head._1) && c._2.sameElements(cols.head._2) &&
        c._3.sameElements(cols.head._3) && c._4.sameElements(cols.head._4), s"$t threads vs 1")
    }
  }
}
