package repro.triangles

import java.util.Arrays
import repro.tgraph.TemporalGraph

/** The δ-triangle list of Definition 9 — the one triangle store that
  * construction, queries and maintenance all read.
  *
  * Triangle `tid` has edge ids `e1(tid) < e2(tid) < e3(tid)` and minimum
  * time span `mts(tid)`, held in primitive int columns; every edge keeps the
  * ids of the triangles containing it. The store only grows: the enumerators
  * fill it with [[add]], and the maintenance state appends edges and
  * triangles and lowers mts values as insertions arrive.
  */
final class TriangleSet private (
    c1: IntColumn,
    c2: IntColumn,
    c3: IntColumn,
    cMts: IntColumn,
    private var inc: Array[Array[Int]], // inc(e)(0 until deg(e)) = tids through e
    private var deg: Array[Int],
    private var nEdges: Int,
) {

  /** An empty store over edge ids `[0, m)`, with room for `capacity`
    * triangles before its columns grow.
    */
  def this(m: Int, capacity: Int = 16) = this(
    new IntColumn(capacity), new IntColumn(capacity), new IntColumn(capacity),
    new IntColumn(capacity), Array.fill(m)(Array.emptyIntArray), new Array[Int](m), m)

  /** Number of static edges the store covers. */
  def m: Int = nEdges

  /** Number of triangles. */
  def size: Int = c1.length

  def e1(tid: Int): Int = c1(tid)
  def e2(tid: Int): Int = c2(tid)
  def e3(tid: Int): Int = c3(tid)
  def mts(tid: Int): Int = cMts(tid)

  def setMts(tid: Int, d: Int): Unit = cMts(tid) = d

  /** The backing arrays of the `(e1, e2, e3, mts)` columns, for the hot
    * loops of the peeling algorithms: slots `[0, size)` hold the triangles.
    * Read only, and only until the next [[add]].
    */
  def columns: (Array[Int], Array[Int], Array[Int], Array[Int]) =
    (c1.unsafeArray, c2.unsafeArray, c3.unsafeArray, cMts.unsafeArray)

  /** Number of triangles containing edge `e`. */
  def degree(e: Int): Int = deg(e)

  /** The backing incidence list of edge `e`, for hot loops: slots
    * `[0, degree(e))` hold the ids of the triangles containing `e`. Read
    * only, and only until the next [[add]].
    */
  def incident(e: Int): Array[Int] = inc(e)

  /** Ids of the triangles containing edge `e`, as a fresh array. */
  def trianglesOf(e: Int): Array[Int] = Arrays.copyOf(inc(e), deg(e))

  /** The two edges of triangle `tid` other than `e`, which must be one of its three. */
  def othersOf(tid: Int, e: Int): (Int, Int) = {
    val a = c1(tid); val b = c2(tid); val c = c3(tid)
    if (e == a) (b, c)
    else if (e == b) (a, c)
    else {
      require(e == c, s"edge $e is not in triangle $tid")
      (a, b)
    }
  }

  /** Append a triangle over three distinct edge ids, given in any order;
    * returns its id.
    */
  def add(x: Int, y: Int, z: Int, mts: Int): Int = {
    var a = x; var b = y; var c = z
    if (a > b) { val t = a; a = b; b = t }
    if (b > c) { val t = b; b = c; c = t }
    if (a > b) { val t = a; a = b; b = t }
    require(a >= 0 && a < b && b < c && c < nEdges && mts >= 0,
      s"bad triangle ($x, $y, $z) with mts $mts over $nEdges edges")
    val tid = size
    c1 += a; c2 += b; c3 += c; cMts += mts
    link(a, tid); link(b, tid); link(c, tid)
    tid
  }

  private def link(e: Int, tid: Int): Unit = {
    val d = deg(e)
    if (d == inc(e).length) inc(e) = Arrays.copyOf(inc(e), math.max(2, 2 * d))
    inc(e)(d) = tid
    deg(e) = d + 1
  }

  /** Append an edge that is in no triangle yet; returns its id. */
  def addEdge(): Int = {
    if (nEdges == inc.length) {
      val grown = Array.fill(math.max(1, 2 * nEdges))(Array.emptyIntArray)
      System.arraycopy(inc, 0, grown, 0, nEdges)
      inc = grown
      deg = Arrays.copyOf(deg, grown.length)
    }
    nEdges += 1
    nEdges - 1
  }

  /** Largest minimum time span over all triangles (`δ_max`); 0 if none. */
  def deltaMax: Int = {
    var best = 0
    var i = 0
    while (i < size) { if (cMts(i) > best) best = cMts(i); i += 1 }
    best
  }

  /** The per-mts buckets of Definition 9 by one counting sort: the
    * triangles with mts δ are `order(start(δ) until start(δ + 1))`, for
    * `0 ≤ δ ≤ deltaMax`. Computed from the current mts column on each call.
    */
  def byMts(): (Array[Int], Array[Int]) = {
    val start = new Array[Int](deltaMax + 2)
    var i = 0
    while (i < size) { start(cMts(i) + 1) += 1; i += 1 }
    var d = 1
    while (d < start.length) { start(d) += start(d - 1); d += 1 }
    val fill = start.clone()
    val order = new Array[Int](size)
    i = 0
    while (i < size) {
      val di = cMts(i)
      order(fill(di)) = i; fill(di) += 1
      i += 1
    }
    (start, order)
  }

  /** An independent copy: later changes to either store leave the other as it was. */
  def copy(): TriangleSet = new TriangleSet(
    c1.copy(), c2.copy(), c3.copy(), cMts.copy(),
    Array.tabulate(nEdges)(e => if (deg(e) == 0) Array.emptyIntArray else Arrays.copyOf(inc(e), deg(e))),
    Arrays.copyOf(deg, nEdges), nEdges)
}

/** Sequential per-edge triangle enumeration — the independent reference for
  * the parallel build enumerator [[TriangleEnum.triangleSet]]. The two share
  * no code; tests and the benchmark's build check compare them.
  */
object DriverTriangles {

  /** Enumerate all triangles `a < b < c` by sorted-adjacency intersection of
    * the endpoints of each edge `(a, b)`, keeping only common neighbors
    * `> b` so each triangle is emitted exactly once. mts is evaluated with
    * the three-pointer algorithm.
    */
  def enumerate(g: TemporalGraph): TriangleSet = {
    val ts = new TriangleSet(g.m)
    var eid = 0
    while (eid < g.m) {
      val e = g.edges(eid)
      val au = g.adj(e.u); val av = g.adj(e.v)
      var i = 0; var j = 0
      while (i < au.length && j < av.length) {
        val nu = g.nbrOf(au(i)); val nv = g.nbrOf(av(j))
        if (nu < nv) i += 1
        else if (nu > nv) j += 1
        else {
          if (nu > e.v) { // common neighbor w with a < b < w
            val euw = g.eidOf(au(i)); val evw = g.eidOf(av(j))
            ts.add(eid, euw, evw, Mts.of(e.ts, g.edges(euw).ts, g.edges(evw).ts))
          }
          i += 1; j += 1
        }
      }
      eid += 1
    }
    ts
  }
}
