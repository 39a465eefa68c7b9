package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so that
  * counters kept by a `SparkListener` are complete when they are read. The
  * bus is package-private to Spark, hence this object's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
