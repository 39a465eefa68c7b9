package repro.triangles

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.tgraph.TemporalGraph

/** Spark SQL (Catalyst) triangle enumeration with minimum-time-span
  * evaluation — the data-parallel workhorse of the reproduction.
  *
  * Per the paper's complexity analysis, the dominant cost of both the online
  * algorithm and index construction is `O(Σ min(deg) + |τ|·|Δ|)`: listing all
  * triangles and evaluating mts over their timestamp arrays. That part runs
  * here as a double self-join over the canonical edge DataFrame; the
  * fine-grained peeling state machines (DBA/MBA) then consume the collected
  * δ-triangle list on the driver.
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

  /** Convenience: enumerate triangles of a driver-side graph through Spark
    * and collect them back as a [[TriangleSet]] keyed by edge ids.
    */
  def triangleSet(spark: SparkSession, g: TemporalGraph): TriangleSet = {
    val rows = triangles(TemporalGraph.toGroupedDF(spark, g)).select("a", "b", "c", "mts").collect()
    val ts = new TriangleSet(g.m, rows.length)
    rows.foreach { r =>
      val a = r.getInt(0); val b = r.getInt(1); val c = r.getInt(2)
      ts.add(g.edgeId(a, b), g.edgeId(b, c), g.edgeId(a, c), r.getInt(3))
    }
    ts
  }

  /** Distribution of triangle counts over mts (the paper's Fig 9 / empirical
    *-study aggregation), as `(mts, cnt)`.
    */
  def mtsHistogram(edges: DataFrame): DataFrame =
    triangles(edges).groupBy("mts").agg(count(lit(1)).as("cnt")).orderBy("mts")
}
