package repro.triangles

/** Minimum time span of a triangle (Definition 1).
  *
  * For a triangle `{u, v, w}` with timestamp sets `τ_uv, τ_vw, τ_wu`,
  * `mts = min{ max(|t1−t2|, |t2−t3|, |t3−t1|) }` over all choices of one
  * timestamp per edge — i.e. the smallest window length that contains at
  * least one interaction of every pair.
  */
object Mts {

  /** Three-pointer "smallest range covering one element of each list".
    *
    * Requires the three arrays sorted ascending and non-negative (the
    * `TEdge` invariants), so `hi − lo` cannot overflow.
    * Runs in `O(|a| + |b| + |c|)`: repeatedly record the span of the current
    * heads and advance the pointer holding the minimum — the classic proof
    * that no candidate window is skipped carries over verbatim.
    */
  def of(a: Array[Int], b: Array[Int], c: Array[Int]): Int = {
    var i = 0; var j = 0; var k = 0
    var best = Int.MaxValue
    while (i < a.length && j < b.length && k < c.length && best > 0) {
      val x = a(i); val y = b(j); val z = c(k)
      val hi = math.max(x, math.max(y, z))
      val lo = math.min(x, math.min(y, z))
      if (hi - lo < best) best = hi - lo
      if (x == lo) i += 1 else if (y == lo) j += 1 else k += 1
    }
    best
  }

  /** Exhaustive O(|a|·|b|·|c|) reference, used only by tests. */
  def bruteForce(a: Array[Int], b: Array[Int], c: Array[Int]): Int = {
    var best = Int.MaxValue
    for (x <- a; y <- b; z <- c) {
      val span = math.max(x, math.max(y, z)) - math.min(x, math.min(y, z))
      if (span < best) best = span
    }
    best
  }
}
