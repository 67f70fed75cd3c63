package org.apache.spark

/** The live listener bus delivers events asynchronously, and the call that
  * waits for it to empty is `private[spark]`. This accessor lives in Spark's
  * package so tests can drain the bus before reading a listener's counts.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
