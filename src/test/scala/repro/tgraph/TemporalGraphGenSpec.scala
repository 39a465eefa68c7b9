package repro.tgraph

import org.scalatest.funsuite.AnyFunSuite
import repro.triangles.DriverTriangles

/** Synthetic dataset generator (S2): determinism and statistical shape. */
class TemporalGraphGenSpec extends AnyFunSuite {

  private lazy val tiny = TemporalGraphGen.GenCfgForTest

  test("generation is deterministic in the seed") {
    val a = TemporalGraphGen.generate(tiny)
    val b = TemporalGraphGen.generate(tiny)
    assert(a.edges.map(e => (e.u, e.v, e.ts.toSeq)).toSeq ==
      b.edges.map(e => (e.u, e.v, e.ts.toSeq)).toSeq)
  }

  test("different seeds give different graphs") {
    val a = TemporalGraphGen.generate(tiny)
    val b = TemporalGraphGen.generate(tiny.copy(seed = 2))
    assert(a.edges.map(e => (e.u, e.v)).toSeq != b.edges.map(e => (e.u, e.v)).toSeq)
  }

  test("timestamps respect the horizon") {
    val g = TemporalGraphGen.generate(tiny)
    assert(g.tMin >= 0 && g.tMax < tiny.horizon)
  }

  test("graph has triangles and a nontrivial truss hierarchy") {
    val g = TemporalGraphGen.generate(tiny)
    val ts = DriverTriangles.enumerate(g)
    assert(ts.size > 50, s"expected triangles, got ${ts.size}")
    assert(GraphStats.kMaxOf(ts) >= 4)
  }

  test("mts distribution is wide (bursty + uniform mixture, Fig 9 shape)") {
    val g = TemporalGraphGen.generate(tiny)
    val ts = DriverTriangles.enumerate(g)
    val mtss = (0 until ts.size).map(ts.mts)
    // spread: both tight (< 10% horizon) and loose (> 40% horizon) triangles
    assert(mtss.count(_ < tiny.horizon / 10) > 0, "no tight triangles")
    assert(mtss.count(_ > (tiny.horizon * 0.4).toInt) > 0, "no loose triangles")
  }

  test("coarsening shrinks deltaMax but preserves the static graph") {
    val g = TemporalGraphGen.generate(tiny)
    val c = TemporalGraphGen.coarsen(g, 10)
    assert(c.edges.map(e => (e.u, e.v)).toSeq == g.edges.map(e => (e.u, e.v)).toSeq)
    val tsC = DriverTriangles.enumerate(c)
    val tsG = DriverTriangles.enumerate(g)
    assert(tsC.size == tsG.size)
    assert(tsC.deltaMax <= tsG.deltaMax / 10 + 1)
  }

  test("all eight dataset analogs are registered and resolvable by name") {
    assert(TemporalGraphGen.datasets.size == 8)
    for (cfg <- TemporalGraphGen.datasets)
      assert(TemporalGraphGen.byName(cfg.name) == cfg)
    intercept[RuntimeException](TemporalGraphGen.byName("nope"))
  }

  test("analog horizons match the paper's Table I n column") {
    val n = TemporalGraphGen.datasets.map(c => c.name -> c.horizon).toMap
    assert(n("email-lite") == 803)
    assert(n("youtube-lite") == 225) // the small-n compression outlier
    assert(n("stackoverflow-lite") == 2774)
  }
}
