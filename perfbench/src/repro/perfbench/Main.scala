package repro.perfbench

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession

/** `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`: runs one
  * workload in this JVM. Prints an info record, then the result record as
  * the last line of standard output. */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = { System.err.println(s"perfbench: $msg"); sys.exit(2) }
    val name = opts.getOrElse("workload", fail("--workload is required"))
    val w = Workloads.all.find(_.name == name).getOrElse(
      fail(s"unknown workload $name; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed = opts.get("seed").map(_.toLong).getOrElse(1L)
    val seconds = opts.get("seconds").map(_.toInt).getOrElse(10)
    val trace = opts.get("trace").contains("1")

    val scratch = sys.props.getOrElse("perfbench.scratch", System.getProperty("java.io.tmpdir"))
    val t0 = System.nanoTime()
    // local[*] and 64 shuffle partitions, as the jobs/ entry points run
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", scratch)
      .config("spark.sql.warehouse.dir", new java.io.File(scratch, "warehouse").getPath)
      .getOrCreate()
    val sessionS = (System.nanoTime() - t0) / 1e9

    val (result, info) =
      try new Bench(w, seed, seconds, trace, spark, sessionS).run()
      catch {
        case e: Throwable =>
          e.printStackTrace()
          spark.stop()
          sys.exit(1)
      }
    spark.stop()
    println(Json(ListMap("info" -> info)))
    println(Json(result))
    System.out.flush()
    sys.exit(0)
  }
}
