package repro.tgraph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A temporal edge `(u, v, τ)` in canonical form: `u < v` and `ts` sorted,
  * distinct and non-empty (Preliminaries §II of the paper). Vertex ids and
  * timestamps are non-negative, so a timestamp difference never overflows.
  */
final case class TEdge(u: Int, v: Int, ts: Array[Int]) {
  require(u < v, s"temporal edge must be canonical (u < v), got ($u, $v)")
  require(ts.nonEmpty, s"temporal edge ($u, $v) must carry at least one timestamp")
  require(u >= 0 && ts.forall(_ >= 0), s"temporal edge ($u, $v) needs non-negative ids and timestamps")
}

/** Immutable driver-side temporal graph `G_t = (V, E, Γ)`.
  *
  * Edges are identified by their index in `edges`; all peeling and
  * maintenance algorithms operate on these integer edge ids. Adjacency is
  * stored per vertex as a neighbor-sorted array of `(neighbor << 32) | edgeId`
  * packed longs, which makes sorted-merge intersection (triangle listing)
  * allocation-free.
  */
final class TemporalGraph(val edges: Array[TEdge]) {

  /** Number of static edges `|E|`. */
  def m: Int = edges.length

  /** One-past-the-max vertex id; vertex ids are dense `[0, nVertexIds)`. */
  val nVertexIds: Int =
    if (edges.isEmpty) 0 else edges.iterator.map(_.v).max + 1

  /** Number of distinct vertices that occur in some edge (`|V|`). */
  lazy val numVertices: Int = {
    val seen = new Array[Boolean](nVertexIds)
    edges.foreach { e => seen(e.u) = true; seen(e.v) = true }
    seen.count(identity)
  }

  /** Packed adjacency: `adj(v)` holds `(neighbor << 32) | edgeId`, sorted by
    * neighbor. Covers both directions of each undirected edge.
    */
  val adj: Array[Array[Long]] = {
    val deg = new Array[Int](nVertexIds)
    edges.foreach { e => deg(e.u) += 1; deg(e.v) += 1 }
    val out = Array.tabulate(nVertexIds)(v => new Array[Long](deg(v)))
    val fill = new Array[Int](nVertexIds)
    var eid = 0
    while (eid < edges.length) {
      val e = edges(eid)
      out(e.u)(fill(e.u)) = (e.v.toLong << 32) | eid.toLong; fill(e.u) += 1
      out(e.v)(fill(e.v)) = (e.u.toLong << 32) | eid.toLong; fill(e.v) += 1
      eid += 1
    }
    out.foreach(a => java.util.Arrays.sort(a))
    out
  }

  @inline def nbrOf(packed: Long): Int = (packed >>> 32).toInt
  @inline def eidOf(packed: Long): Int = (packed & 0xffffffffL).toInt

  def degree(v: Int): Int = if (v < nVertexIds) adj(v).length else 0

  private lazy val idIndex: java.util.HashMap[Long, Integer] = {
    val mmap = new java.util.HashMap[Long, Integer](edges.length * 2)
    var i = 0
    while (i < edges.length) {
      mmap.put((edges(i).u.toLong << 32) | edges(i).v.toLong, i); i += 1
    }
    mmap
  }

  /** Edge id of canonical pair `(u, v)` with `u < v`, or -1 if absent. */
  def edgeId(u: Int, v: Int): Int = {
    val (a, b) = if (u < v) (u, v) else (v, u)
    val r = idIndex.get((a.toLong << 32) | b.toLong)
    if (r == null) -1 else r.intValue()
  }

  /** Smallest timestamp in the graph (0 for an empty graph). */
  lazy val tMin: Int = if (edges.isEmpty) 0 else edges.iterator.map(_.ts.head).min

  /** Largest timestamp in the graph (0 for an empty graph). */
  lazy val tMax: Int = if (edges.isEmpty) 0 else edges.iterator.map(_.ts.last).max

  /** Number of distinct timestamps `n` across all edges. */
  lazy val numDistinctTimestamps: Int = {
    val s = new java.util.HashSet[Int]()
    edges.foreach(_.ts.foreach(s.add))
    s.size
  }

  /** Average number of timestamps per static edge (`|τ|` in Table I). */
  def avgTimestampsPerEdge: Double =
    if (edges.isEmpty) 0.0 else edges.iterator.map(_.ts.length.toLong).sum.toDouble / m
}

object TemporalGraph {

  /** Build from raw interaction triples `(u, v, t)`: canonicalizes pairs,
    * drops self loops, dedupes and sorts timestamps per static edge.
    */
  def fromInteractions(rows: Iterable[(Int, Int, Int)]): TemporalGraph = {
    val byEdge = scala.collection.mutable.HashMap.empty[(Int, Int), scala.collection.mutable.TreeSet[Int]]
    rows.foreach { case (u, v, t) =>
      if (u != v) {
        val key = if (u < v) (u, v) else (v, u)
        byEdge.getOrElseUpdate(key, scala.collection.mutable.TreeSet.empty[Int]) += t
      }
    }
    val es = byEdge.toArray.sortBy(_._1).map { case ((u, v), ts) => TEdge(u, v, ts.toArray) }
    new TemporalGraph(es)
  }

  /** Convenience for tests: edges given as `(u, v, timestamps)`. */
  def apply(rows: (Int, Int, Seq[Int])*): TemporalGraph =
    fromInteractions(rows.flatMap { case (u, v, ts) => ts.map(t => (u, v, t)) })

  /** DataFrame of exploded temporal edges `(src, dst, t)` with `src < dst` —
    * the partitioned-temporal-edge representation used by the Spark jobs.
    */
  def toDF(spark: SparkSession, g: TemporalGraph): DataFrame = {
    import spark.implicits._
    val rows = g.edges.iterator.flatMap(e => e.ts.iterator.map(t => (e.u, e.v, t))).toSeq
    rows.toDF("src", "dst", "t")
  }

  /** Grouped DataFrame `(src, dst, ts: array<int>)` with sorted timestamp
    * arrays — the canonical input of the Spark triangle enumerator.
    */
  def toGroupedDF(spark: SparkSession, g: TemporalGraph): DataFrame = {
    import spark.implicits._
    g.edges.toSeq.map(e => (e.u, e.v, e.ts.toSeq)).toDF("src", "dst", "ts")
  }
}
