package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.KSpanTable
import repro.tgraph.TemporalGraph

/** DataFrame-backed serialization of TC-Index — "index structures as
  * DataFrames over partitioned temporal edges" (repro hint). A (k,δ)-truss
  * retrieval is a Catalyst range filter over the `(k, kspan)` columns; the
  * DataFrame is repartitioned by `k` so each row group serves one `I_k`.
  */
object IndexDF {

  /** `(k, kspan, src, dst)` — one row per TC-Index edge entry. */
  def tcToDF(spark: SparkSession, t: KSpanTable, g: TemporalGraph): DataFrame = {
    import spark.implicits._
    val rows = for {
      e <- 0 until t.m
      k <- 3 to t.trn(e)
    } yield (k, t.span(e, k), g.edges(e).u, g.edges(e).v)
    rows.toDF("k", "kspan", "src", "dst").repartition(col("k"))
  }

  /** The (k,δ)-truss as an edge DataFrame `(src, dst)`. */
  def query(indexDf: DataFrame, k: Int, delta: Int): DataFrame =
    indexDf.filter(col("k") === k && col("kspan") <= delta).select("src", "dst")
}
