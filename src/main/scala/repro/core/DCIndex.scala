package repro.core

/** One kept node of the incremental edge set tree: the (k, δ)-truss it
  * represents, its parent in the reduced arborescence (-1 for the root) and
  * its Incremental Edge Set relative to its *original* parent (identical to
  * the IES relative to the reduced parent, because every skipped node
  * contributed an empty IES).
  */
final class DCNode(val k: Int, val delta: Int, val parent: Int, val ies: Array[Int])

/** Dual Containment Index (§IV-B).
  *
  * Derivation implemented exactly as Definitions 6–8:
  *  1. (k,δ)-truss graph: grid nodes (k, δ) with a vertical edge to
  *     (k+1, δ) weighted `|T_{k,δ}| − |T_{k+1,δ}|` and a horizontal edge to
  *     (k, δ−1) weighted `#{e : trn(e) ≥ k, kspan(e,k) = δ}`;
  *  2. arborescence: keep the lighter outgoing edge (ties keep the
  *     horizontal one — the paper does not fix a tie-break, and horizontal
  *     keeps the structure closest to TC-Index);
  *  3. reduction: a node whose kept edge has weight 0 is merged into its
  *     parent; queries for it resolve to its representative.
  *
  * The per-row compressed lookup table maps δ to the representative tree
  * node by binary search, so DC-Query costs `O(log δmax + |T_{k,δ}|)` —
  * the same order as TC-Query (Theorem 4) — while the edge storage is
  * space-optimal among structures that keep that retrieval bound
  * (Theorem 3).
  */
final class DCIndex(
    val nodes: Array[DCNode],
    val rootId: Int,
    // lookup(k−3) = ascending (deltaStart, nodeId) runs; binary search on δ
    val lookup: Array[Array[(Int, Int)]],
    val m: Int,
    val deltaMax: Int,
) {
  def kMax: Int = lookup.length + 2

  /** Edge ids of `T_{k,δ}`: resolve the representative node, then union the
    * IESes on the path to the root (disjoint by construction).
    */
  def query(k: Int, delta: Int): Array[Int] = {
    if (k <= 2) return Array.range(0, m)
    if (k > kMax) return Array.emptyIntArray
    val row = lookup(k - 3)
    // largest deltaStart <= delta
    var lo = 0; var hi = row.length - 1; var found = -1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (row(mid)._1 <= delta) { found = mid; lo = mid + 1 } else hi = mid - 1
    }
    if (found < 0) return Array.emptyIntArray
    // two passes: size the result exactly, then bulk-copy the path IESes
    var total = 0
    var cur = row(found)._2
    while (cur >= 0) { total += nodes(cur).ies.length; cur = nodes(cur).parent }
    val out = new Array[Int](total)
    var off = 0
    cur = row(found)._2
    while (cur >= 0) {
      val a = nodes(cur).ies
      System.arraycopy(a, 0, out, off, a.length)
      off += a.length
      cur = nodes(cur).parent
    }
    out
  }

  /** Total number of edge entries stored in IESes (Table II "total edge #"). */
  def totalEdgeEntries: Long = nodes.iterator.map(_.ies.length.toLong).sum

  /** Approximate serialized size in bytes: 8 per IES edge entry + 16 per
    * tree node + 8 per lookup run.
    */
  def approxBytes: Long =
    totalEdgeEntries * 8L + nodes.length * 16L +
      lookup.iterator.map(_.length.toLong).sum * 8L
}

object DCIndex {

  /** Build the reduced (k,δ)-truss arborescence + IES tree from the k-span
    * table.
    */
  def fromTable(t: KSpanTable): DCIndex = {
    val kMax = t.kMax
    val dMax = t.deltaMax
    if (kMax < 3)
      return new DCIndex(Array(new DCNode(3, 0, -1, Array.emptyIntArray)), 0,
        Array.empty, t.m, dMax)

    val nK = kMax - 2          // rows k = 3..kMax
    val nD = dMax + 1          // cols δ = 0..dMax
    val (trn, spans) = t.columns
    @inline def gid(k: Int, d: Int): Int = (k - 3) * nD + d

    // cntAll(k,δ) = #edges with trn ≥ k, kspan(e,k) = δ  (horizontal weight)
    val cntAll = Array.ofDim[Int](nK, nD)
    var e = 0
    while (e < t.m) {
      var k = 3
      while (k <= trn(e)) {
        val d = spans(e)(k - 3)
        cntAll(k - 3)(d) += 1
        k += 1
      }
      e += 1
    }
    // sizeT(k,δ) = |T_{k,δ}| = prefix sums of cntAll over δ
    val sizeT = Array.ofDim[Long](nK, nD)
    var ki = 0
    while (ki < nK) {
      var acc = 0L
      var d = 0
      while (d < nD) { acc += cntAll(ki)(d); sizeT(ki)(d) = acc; d += 1 }
      ki += 1
    }

    // --- arborescence: pick the lighter outgoing edge ---------------------
    // parentDir: 0 = vertical (k+1, δ), 1 = horizontal (k, δ−1), -1 = root
    val parentDir = new Array[Byte](nK * nD)
    val keptWeight = new Array[Long](nK * nD)
    var k = 3
    while (k <= kMax) {
      var d = 0
      while (d <= dMax) {
        val hasV = k < kMax
        val hasH = d >= 1
        val wV = if (hasV) sizeT(k - 3)(d) - sizeT(k - 2)(d) else Long.MaxValue
        val wH = if (hasH) cntAll(k - 3)(d).toLong else Long.MaxValue
        val id = gid(k, d)
        if (!hasV && !hasH) { parentDir(id) = -1; keptWeight(id) = 0L }
        else if (wV < wH) { parentDir(id) = 0; keptWeight(id) = wV }
        else { parentDir(id) = 1; keptWeight(id) = wH }
        d += 1
      }
      k += 1
    }

    // --- reduction: rep(node) = self if kept, else rep(parent) ------------
    // process k descending then δ ascending so parents are resolved first
    val rep = new Array[Int](nK * nD)
    k = kMax
    while (k >= 3) {
      var d = 0
      while (d <= dMax) {
        val id = gid(k, d)
        if (parentDir(id) == -1) rep(id) = id // root is always kept
        else {
          val pid = if (parentDir(id) == 0) gid(k + 1, d) else gid(k, d - 1)
          rep(id) = if (keptWeight(id) == 0L) rep(pid) else id
        }
        d += 1
      }
      k -= 1
    }

    // --- materialize kept nodes with their IESes --------------------------
    // CSR buckets: per k row one flat edge array ordered by k-span, with
    // rowPtr(k)(δ..δ+1) delimiting the edges of k-span exactly δ
    val rowPtr = Array.tabulate(nK) { ki2 =>
      val p = new Array[Int](nD + 1)
      var d = 0
      while (d < nD) { p(d + 1) = p(d) + cntAll(ki2)(d); d += 1 }
      p
    }
    val flatKD = Array.tabulate(nK)(ki2 => new Array[Int](rowPtr(ki2)(nD)))
    val cursor = Array.tabulate(nK)(ki2 => rowPtr(ki2).clone())
    e = 0
    while (e < t.m) {
      var k2 = 3
      while (k2 <= trn(e)) {
        val d = spans(e)(k2 - 3)
        val cur = cursor(k2 - 3)
        flatKD(k2 - 3)(cur(d)) = e; cur(d) += 1
        k2 += 1
      }
      e += 1
    }
    /** Edges with trn ≥ k and kspan(e,k) = d, as a CSR slice copy. */
    @inline def bucket(ki2: Int, d: Int): Array[Int] =
      java.util.Arrays.copyOfRange(flatKD(ki2), rowPtr(ki2)(d), rowPtr(ki2)(d + 1))
    // k-span of e at level k+1, treating k = trn(e) as +∞ — k-spans are
    // nondecreasing in k, so e ∈ T_{k,δ} \ T_{k+1,δ} iff
    // kspan(e,k) ≤ δ < kspan(e,k+1)
    @inline def spanUp(e2: Int, k2: Int): Int =
      if (k2 >= trn(e2)) Int.MaxValue else spans(e2)(k2 - 2)

    val nodeId = Array.fill(nK * nD)(-1)
    val kept = scala.collection.mutable.ArrayBuffer.empty[Int]
    var id = 0
    while (id < nK * nD) {
      if (rep(id) == id) { nodeId(id) = kept.length; kept += id }
      id += 1
    }
    val nodes = new Array[DCNode](kept.length)
    var rootId = -1
    var ni = 0
    while (ni < kept.length) {
      val g = kept(ni)
      val nk = g / nD + 3
      val nd = g % nD
      val dir = parentDir(g)
      val (parent, ies) =
        if (dir == -1) {
          rootId = ni
          // root (kMax, 0): its full edge set
          (-1, bucket(nk - 3, nd))
        } else if (dir == 0) {
          // vertical parent (k+1, δ): IES = T_{k,δ} \ T_{k+1,δ}
          //                               = {kspan(e,k) ≤ δ < kspan(e,k+1)}
          val pid = nodeId(rep(gid(nk + 1, nd)))
          val buf = scala.collection.mutable.ArrayBuilder.make[Int]
          val flat = flatKD(nk - 3)
          val hi = rowPtr(nk - 3)(nd + 1) // all edges with kspan(e,k) ≤ δ
          var i2 = 0
          while (i2 < hi) {
            val e2 = flat(i2)
            if (spanUp(e2, nk) > nd) buf += e2
            i2 += 1
          }
          (pid, buf.result())
        } else {
          // horizontal parent (k, δ−1): IES = {trn ≥ k, kspan = δ}
          val pid = nodeId(rep(gid(nk, nd - 1)))
          (pid, bucket(nk - 3, nd))
        }
      nodes(ni) = new DCNode(nk, nd, parent, ies)
      ni += 1
    }

    // --- compressed per-row lookup table ---------------------------------
    val lookup = Array.tabulate(nK) { ki2 =>
      val row = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
      var d = 0
      while (d <= dMax) {
        val r = nodeId(rep(gid(ki2 + 3, d)))
        // only record runs once T_{k,δ} is non-empty; empty prefixes return
        // the empty set at query time by falling before the first run —
        // unless the truss is empty for ALL δ, in which case the run still
        // resolves to a node whose path union is empty.
        if (row.isEmpty || row.last._2 != r) row += ((d, r))
        d += 1
      }
      row.toArray
    }

    new DCIndex(nodes, rootId, lookup, t.m, dMax)
  }
}
