package org.apache.spark

/** The live listener bus delivers events asynchronously, and the call that
  * waits for it to empty is `private[spark]`. This accessor lives in Spark's
  * package so the benchmark can drain the bus before reading its counters.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
