package repro.core.maintenance

import scala.collection.mutable
import repro.core.KSpanTable
import repro.tgraph.{TEdge, TemporalGraph}
import repro.triangles.{IntColumn, Mts, TriangleSet}

/** Mutable companion of a temporal graph plus its complete (k,δ)-truss
  * answer state — everything §VI's filter-and-verification algorithm reads
  * and writes: the timestamped edges, the triangle store with live mts
  * values, and the k-span table with the static trussness. The store and
  * the table are the build's own types, updated in place.
  *
  * Growth-only by design (the paper assumes history is immutable: edges and
  * timestamps are only inserted).
  */
final class DynamicState private (
    val eU: IntColumn,
    val eV: IntColumn,
    val eTs: mutable.ArrayBuffer[Array[Int]],
    val adjOf: mutable.ArrayBuffer[mutable.HashMap[Int, Int]], // vertex -> (nbr -> eid)
    val tris: TriangleSet,
    val table: KSpanTable,
) {

  def m: Int = eU.length

  def edgeId(u: Int, v: Int): Int = {
    val (a, b) = if (u < v) (u, v) else (v, u)
    if (a >= adjOf.length) -1 else adjOf(a).getOrElse(b, -1)
  }

  def trn: IntColumn = table.trn
  def span(e: Int, k: Int): Int = table.span(e, k)

  def ensureVertex(v: Int): Unit =
    while (adjOf.length <= v) adjOf += mutable.HashMap.empty[Int, Int]

  /** Append a brand-new static edge (canonical `u < v`) with one timestamp;
    * registers its triangles (common-neighbor scan) and returns
    * `(edgeId, newTriangleIds)`. The table gets a placeholder (`trn = 2`,
    * empty k-span row) — the caller maintains it.
    */
  def addEdge(u: Int, v: Int, t: Int): (Int, Seq[Int]) = {
    require(u < v && edgeId(u, v) < 0)
    ensureVertex(v)
    val eid = tris.addEdge()
    eU += u; eV += v; eTs += Array(t)
    adjOf(u)(v) = eid; adjOf(v)(u) = eid
    table.addEdge()
    val newTris = mutable.ArrayBuffer.empty[Int]
    // common neighbors of u and v
    val (small, large) = if (adjOf(u).size <= adjOf(v).size) (u, v) else (v, u)
    for ((w, eSmall) <- adjOf(small) if w != u && w != v) {
      adjOf(large).get(w) match {
        case Some(eLarge) =>
          val mtsNew = Mts.of(eTs(eid), eTs(eSmall), eTs(eLarge))
          newTris += tris.add(eid, eSmall, eLarge, mtsNew)
          table.coverMts(mtsNew)
        case None =>
      }
    }
    (eid, newTris.toSeq)
  }

  /** Add timestamp `t` to existing edge `e` (no-op if already present);
    * refreshes the mts of every triangle through `e` and returns the
    * triangles whose mts changed as `(tid, oldMts, newMts)`.
    */
  def addTimestamp(e: Int, t: Int): Seq[(Int, Int, Int)] = {
    val ts = eTs(e)
    val pos = java.util.Arrays.binarySearch(ts, t)
    if (pos >= 0) return Seq.empty
    val ins = -pos - 1
    val nts = new Array[Int](ts.length + 1)
    System.arraycopy(ts, 0, nts, 0, ins)
    nts(ins) = t
    System.arraycopy(ts, ins, nts, ins + 1, ts.length - ins)
    eTs(e) = nts
    val changed = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    for (tid <- tris.trianglesOf(e)) {
      val old = tris.mts(tid)
      val nu = Mts.of(eTs(tris.e1(tid)), eTs(tris.e2(tid)), eTs(tris.e3(tid)))
      if (nu != old) {
        assert(nu < old, s"mts may only shrink on timestamp insertion ($old -> $nu)")
        tris.setMts(tid, nu)
        changed += ((tid, old, nu))
      }
    }
    changed.toSeq
  }

  // --- snapshots for verification against rebuild ------------------------

  def snapshotGraph: TemporalGraph =
    new TemporalGraph(Array.tabulate(m)(e => TEdge(eU(e), eV(e), eTs(e))))

  def snapshotTriangles: TriangleSet = tris.copy()

  /** A copy of the table with the exact δmax of the current triangles. */
  def snapshotTable: KSpanTable = table.copy(tris.deltaMax)

  /** The held table itself, no copy, for incremental index refreshes. It
    * stays valid until the next insertion; its `deltaMax` is an upper bound
    * (see [[KSpanTable.deltaMax]]).
    */
  def tableView: KSpanTable = table
}

object DynamicState {

  /** Seed the state from an already-indexed graph. The state works on its
    * own copies: later insertions leave `g`, `ts` and `table` as they were.
    */
  def fromGraph(g: TemporalGraph, ts: TriangleSet, table: KSpanTable): DynamicState = {
    require(ts.m == g.m && table.m == g.m,
      s"triangles over ${ts.m} edges and a table over ${table.m} edges do not fit a graph of ${g.m}")
    val adj = mutable.ArrayBuffer.fill(math.max(1, g.nVertexIds))(mutable.HashMap.empty[Int, Int])
    for (e <- 0 until g.m) { adj(g.edges(e).u)(g.edges(e).v) = e; adj(g.edges(e).v)(g.edges(e).u) = e }
    new DynamicState(
      IntColumn.wrap(g.edges.map(_.u)),
      IntColumn.wrap(g.edges.map(_.v)),
      mutable.ArrayBuffer.from(g.edges.map(_.ts.clone())),
      adj,
      ts.copy(),
      table.copy(),
    )
  }
}
