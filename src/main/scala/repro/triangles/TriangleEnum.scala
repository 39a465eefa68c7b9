package repro.triangles

import java.util.Arrays
import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.tgraph.TemporalGraph

/** Triangle enumeration with minimum-time-span evaluation.
  *
  * Per the paper's complexity analysis, the dominant cost of both the online
  * algorithm and index construction is `O(Σ min(deg) + |τ|·|Δ|)`: listing all
  * triangles and evaluating mts over their timestamp arrays. The index build
  * runs it in [[triangleSet]], a forward-adjacency merge over the driver's
  * packed adjacency, split into vertex ranges across the driver's cores. The
  * Spark SQL double self-join in [[triangles]] is the DataFrame path: it feeds
  * [[repro.dist.DistTruss]] and [[mtsHistogram]], and the tests pin it to
  * DuckDB and GraphX.
  */
object TriangleEnum {

  /** UDF wrapper over [[Mts.of]]; inputs are sorted timestamp arrays. */
  val mtsUdf = udf { (a: Seq[Int], b: Seq[Int], c: Seq[Int]) =>
    Mts.of(a.toArray, b.toArray, c.toArray)
  }

  /** All triangles `a < b < c` of a grouped edge DataFrame
    * `(src, dst, ts: array<int>)` with `src < dst`, as
    * `(a, b, c, mts)`.
    *
    * Join shape: `(a,b) ⋈_{b} (b,c) ⋈_{(a,c)} (a,c)` — each triangle is
    * produced exactly once because every edge is stored with `src < dst`.
    */
  def triangles(edges: DataFrame): DataFrame = {
    val e1 = edges.select(col("src").as("a"), col("dst").as("b"), col("ts").as("ts_ab"))
    val e2 = edges.select(col("src").as("b2"), col("dst").as("c"), col("ts").as("ts_bc"))
    val e3 = edges.select(col("src").as("a3"), col("dst").as("c3"), col("ts").as("ts_ac"))
    e1.join(e2, col("b") === col("b2"))
      .join(e3, col("a") === col("a3") && col("c") === col("c3"))
      .select(
        col("a"), col("b"), col("c"),
        mtsUdf(col("ts_ab"), col("ts_bc"), col("ts_ac")).as("mts"),
      )
  }

  /** The δ-triangle list of a driver-side graph, enumerated on as many
    * driver threads as the session's default parallelism.
    */
  def triangleSet(spark: SparkSession, g: TemporalGraph): TriangleSet =
    forwardTriangles(g, spark.sparkContext.defaultParallelism)

  /** Vertices per work chunk: small, so that the threads share out the
    * few vertices of a dense core that carry most of the work.
    */
  private val ChunkVertices = 64

  /** All triangles `u < v < w` of `g` on `threads` threads. For each vertex
    * `u` and each forward neighbour `v > u`, the rest of `u`'s forward list
    * is merged with `v`'s forward list; each common neighbour `w` is one
    * triangle. The triangle ids follow vertex order, whatever `threads` is,
    * and the store's columns are sized exactly.
    */
  private[triangles] def forwardTriangles(g: TemporalGraph, threads: Int): TriangleSet = {
    require(threads >= 1, s"need at least one thread, got $threads")
    val nChunks = (g.nVertexIds + ChunkVertices - 1) / ChunkVertices
    val found = new Array[IntColumn](nChunks)
    val next = new AtomicInteger(0)
    val worker: Callable[Unit] = () => {
      var c = next.getAndIncrement()
      while (c < nChunks) {
        found(c) = chunkTriangles(g, c * ChunkVertices, math.min(g.nVertexIds, (c + 1) * ChunkVertices))
        c = next.getAndIncrement()
      }
    }
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val running = Seq.fill(threads)(pool.submit(worker))
      running.foreach(_.get())
    } finally pool.shutdownNow()

    val ts = new TriangleSet(g.m, found.iterator.map(_.length / 4).sum)
    found.foreach { buf =>
      val a = buf.unsafeArray
      var i = 0
      while (i < buf.length) { ts.add(a(i), a(i + 1), a(i + 2), a(i + 3)); i += 4 }
    }
    ts
  }

  /** The triangles whose smallest vertex is in `[from, until)`, as
    * quadruples of three edge ids, in no particular order, and the mts.
    */
  private def chunkTriangles(g: TemporalGraph, from: Int, until: Int): IntColumn = {
    val out = new IntColumn(64)
    var u = from
    while (u < until) {
      val au = g.adj(u)
      var i = forwardStart(au, u)
      while (i < au.length) {
        val v = g.nbrOf(au(i)); val euv = g.eidOf(au(i))
        val av = g.adj(v)
        var j = i + 1; var k = forwardStart(av, v)
        while (j < au.length && k < av.length) {
          val wu = g.nbrOf(au(j)); val wv = g.nbrOf(av(k))
          if (wu < wv) j += 1
          else if (wu > wv) k += 1
          else {
            val euw = g.eidOf(au(j)); val evw = g.eidOf(av(k))
            out += euv; out += euw; out += evw
            out += Mts.of(g.edges(euv).ts, g.edges(euw).ts, g.edges(evw).ts)
            j += 1; k += 1
          }
        }
        i += 1
      }
      u += 1
    }
    out
  }

  /** First slot of the neighbour-sorted packed list `a` of vertex `u` whose
    * neighbour is `> u`.
    */
  private def forwardStart(a: Array[Long], u: Int): Int = {
    val r = Arrays.binarySearch(a, (u.toLong + 1) << 32)
    if (r >= 0) r else -r - 1
  }

  /** Distribution of triangle counts over mts (the paper's Fig 9 / empirical
    *-study aggregation), as `(mts, cnt)`.
    */
  def mtsHistogram(edges: DataFrame): DataFrame =
    triangles(edges).groupBy("mts").agg(count(lit(1)).as("cnt")).orderBy("mts")
}
