package repro.triangles

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TestGraphs

/** The columnar triangle store: canonical edge order, per-edge incidence,
  * the mts buckets and independent copies.
  */
class TriangleSetSpec extends AnyFunSuite {

  test("edges come out in canonical order whatever order add received them in") {
    val ts = new TriangleSet(6, capacity = 1)
    for ((x, y, z) <- Seq(0, 1, 2).permutations.map(p => (p(0), p(1), p(2))).toSeq :+ ((5, 3, 4)))
      ts.add(x, y, z, 7)
    assert(ts.size == 7)
    for (tid <- 0 until 6) assert((ts.e1(tid), ts.e2(tid), ts.e3(tid), ts.mts(tid)) == ((0, 1, 2, 7)))
    assert((ts.e1(6), ts.e2(6), ts.e3(6)) == ((3, 4, 5)))
    assert(ts.othersOf(6, 4) == ((3, 5)))
  }

  test("add rejects a repeated or out-of-range edge id") {
    val ts = new TriangleSet(3)
    intercept[IllegalArgumentException](ts.add(0, 1, 1, 0))
    intercept[IllegalArgumentException](ts.add(0, 1, 3, 0))
    intercept[IllegalArgumentException](ts.add(0, 1, 2, -1))
    assert(ts.size == 0)
  }

  for (seed <- 0 until 4) {
    test(s"random graph seed=$seed: each tid is listed under exactly its three edges") {
      val ts = TestGraphs.tris(TestGraphs.random(seed))
      val listed = (0 until ts.m).flatMap(e => ts.trianglesOf(e).map(tid => (tid, e)))
      assert(listed.size == 3 * ts.size)
      assert(listed.toSet == (0 until ts.size).flatMap(t => Seq(ts.e1(t), ts.e2(t), ts.e3(t)).map((t, _))).toSet)
      for (e <- 0 until ts.m) assert(ts.degree(e) == ts.trianglesOf(e).length)
    }

    test(s"random graph seed=$seed: the mts buckets partition all tids") {
      val ts = TestGraphs.tris(TestGraphs.random(seed))
      val (start, order) = ts.byMts()
      assert(start.length == ts.deltaMax + 2 && start(0) == 0 && start.last == ts.size)
      assert(order.sorted.toSeq == (0 until ts.size))
      for (d <- 0 to ts.deltaMax; i <- start(d) until start(d + 1)) assert(ts.mts(order(i)) == d)
    }
  }

  test("a copy is independent of its original") {
    val ts = TestGraphs.tris(TestGraphs.running)
    val before = TestGraphs.rows(ts)
    val cp = ts.copy()
    assert(TestGraphs.rows(cp) == before && cp.m == ts.m)
    val e = cp.addEdge()
    cp.add(0, 1, e, 0)
    cp.setMts(0, 0)
    ts.setMts(1, ts.mts(1) + 1)
    assert(cp.size == ts.size + 1 && cp.m == ts.m + 1 && cp.degree(0) == ts.degree(0) + 1)
    assert(TestGraphs.rows(ts) != before && cp.mts(1) == ts.mts(1) - 1)
    ts.setMts(1, ts.mts(1) - 1)
    assert(TestGraphs.rows(ts) == before)
  }
}
