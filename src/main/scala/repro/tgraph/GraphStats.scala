package repro.tgraph

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.triangles.{TriangleEnum, TriangleSet}
import repro.truss.TrussDecomposition

/** One row of the paper's Table I. */
final case class GraphStats(
    name: String,
    numVertices: Long,
    numEdges: Long,
    numTimestamps: Long,  // n: distinct timestamps
    avgTau: Double,       // |τ|: avg timestamps per static edge
    numTriangles: Long,   // |Δ|
    kMax: Int,            // max edge trussness
    deltaMax: Int,        // max triangle minimum time span
) {
  def row: String =
    f"$name%-20s ${numVertices}%8d ${numEdges}%8d ${numTimestamps}%6d " +
      f"$avgTau%5.1f ${numTriangles}%9d $kMax%5d $deltaMax%6d"
}

object GraphStats {
  val header: String =
    f"${"dataset"}%-20s ${"|V|"}%8s ${"|E|"}%8s ${"n"}%6s ${"|tau|"}%5s ${"|tri|"}%9s ${"kmax"}%5s ${"dmax"}%6s"

  /** Compute Table-I statistics: the set-level aggregates run as Spark SQL
    * over the exploded temporal-edge DataFrame, triangles + mts through the
    * parallel driver enumerator [[TriangleEnum.triangleSet]], and kmax via
    * driver truss decomposition over that δ-triangle list.
    */
  def compute(spark: SparkSession, name: String, g: TemporalGraph): GraphStats = {
    val te = TemporalGraph.toDF(spark, g)
    val agg = te.agg(
      countDistinct(array(col("src"), col("dst"))).as("m"),
      countDistinct(col("t")).as("n"),
      count(lit(1)).as("interactions"),
    ).head()
    val nV = te.select(explode(array(col("src"), col("dst"))).as("v"))
      .agg(countDistinct(col("v"))).head().getLong(0)
    val m = agg.getLong(0); val n = agg.getLong(1); val inter = agg.getLong(2)
    val ts = TriangleEnum.triangleSet(spark, g)
    GraphStats(name, nV, m, n, if (m == 0) 0.0 else inter.toDouble / m,
      ts.size.toLong, kMaxOf(ts), ts.deltaMax)
  }

  /** Max static trussness over all edges (2 for a triangle-free graph). */
  def kMaxOf(ts: TriangleSet): Int = {
    val trn = TrussDecomposition.trussness(ts)
    if (trn.isEmpty) 2 else trn.max
  }
}
