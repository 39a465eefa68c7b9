package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** KSpanTable container semantics (membership, equality, Σ|T| accounting). */
class KSpanTableSpec extends AnyFunSuite {

  private def table(seed: Int): KSpanTable = MBA.build(TestGraphs.tris(TestGraphs.random(seed)))

  test("membership: k<=2 always true, k>trn always false") {
    val t = table(1)
    for (e <- 0 until t.m) {
      assert(t.inTruss(e, 2, 0))
      assert(t.inTruss(e, 0, 0))
      assert(!t.inTruss(e, t.trn(e) + 1, t.deltaMax))
    }
  }

  test("membership steps exactly at the k-span") {
    val t = table(2)
    for (e <- 0 until t.m; k <- 3 to t.trn(e)) {
      val s = t.span(e, k)
      assert(t.inTruss(e, k, s))
      if (s > 0) assert(!t.inTruss(e, k, s - 1))
    }
  }

  test("trussEdges is sorted and consistent with inTruss") {
    val t = table(3)
    for (k <- 2 to t.kMax + 1; d <- Seq(0, t.deltaMax / 2, t.deltaMax)) {
      val es = t.trussEdges(k, d)
      assert(es.toSeq == es.toSeq.sorted)
      assert(es.forall(t.inTruss(_, k, d)))
      assert((0 until t.m).filterNot(es.contains(_)).forall(e => !t.inTruss(e, k, d)))
    }
  }

  test("equality: equal for identical builds, different after perturbation") {
    val a = table(4); val b = table(4)
    assert(a == b)
    assert(a.hashCode == b.hashCode)
    if (a.m > 0 && a.trn(0) >= 3) {
      val spans2 = a.spans.toArray.map(_.clone())
      spans2(0)(0) = spans2(0)(0) + 1
      val c = new KSpanTable(a.trn.toArray, spans2, a.deltaMax)
      assert(a != c)
    }
    assert(a != new KSpanTable(a.trn.toArray, a.spans.toArray.map(_.clone()), a.deltaMax + 1))
  }

  test("kMax floors at 2 on empty tables") {
    val t = new KSpanTable(Array.empty, Array.empty, 0)
    assert(t.kMax == 2 && t.totalTrussCells == 0L && t.trussEdges(3, 0).isEmpty)
  }
}
