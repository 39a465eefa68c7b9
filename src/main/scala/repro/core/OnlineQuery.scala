package repro.core

import repro.triangles.TriangleSet

/** Index-free (k, δ)-truss query (§III): δ-constrained truss peeling.
  *
  * Computes the δ-support of every edge (counting only triangles with
  * `mts ≤ δ`), then iteratively removes edges whose δ-support inside the
  * survivor set falls below `k−2`. The survivors are the maximal subgraph of
  * Definition 4. Cost is dominated by triangle listing + mts evaluation,
  * which the caller amortizes through the precomputed [[TriangleSet]]
  * (built once per graph by [[repro.triangles.TriangleEnum.triangleSet]]).
  */
object OnlineQuery {

  /** Edge ids of `T_{k,δ}`, ascending. `k ≤ 2` returns every edge. */
  def query(ts: TriangleSet, k: Int, delta: Int): Array[Int] = {
    val m = ts.m
    if (k <= 2) return Array.range(0, m)

    val liveTri = new Array[Boolean](ts.size)
    val sup = new Array[Int](m)
    val (e1s, e2s, e3s, mtss) = ts.columns
    var i = 0
    while (i < ts.size) {
      if (mtss(i) <= delta) {
        liveTri(i) = true
        sup(e1s(i)) += 1; sup(e2s(i)) += 1; sup(e3s(i)) += 1
      }
      i += 1
    }
    val alive = Array.fill(m)(true)
    val queue = scala.collection.mutable.ArrayDeque.empty[Int]
    var e = 0
    while (e < m) { if (sup(e) < k - 2) { queue += e }; e += 1 }
    while (queue.nonEmpty) {
      val cur = queue.removeHead()
      if (alive(cur)) {
        alive(cur) = false
        val incident = ts.incident(cur)
        var ti = 0
        while (ti < ts.degree(cur)) {
          val tid = incident(ti)
          if (liveTri(tid)) {
            liveTri(tid) = false
            val (f1, f2) = ts.othersOf(tid, cur)
            sup(f1) -= 1; if (alive(f1) && sup(f1) < k - 2) queue += f1
            sup(f2) -= 1; if (alive(f2) && sup(f2) < k - 2) queue += f2
          }
          ti += 1
        }
      }
    }
    (0 until m).filter(alive).toArray
  }
}
