package repro.perfbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._

/** Cumulative Spark work: jobs, tasks, executor CPU, shuffle bytes written,
  * and the wall time during which at least one job was running.
  */
final case class Counts(jobs: Long, tasks: Long, taskCpuNs: Long, shuffleBytes: Long,
                        jobMillis: Long) {
  def -(o: Counts): Counts = Counts(jobs - o.jobs, tasks - o.tasks, taskCpuNs - o.taskCpuNs,
                                    shuffleBytes - o.shuffleBytes, jobMillis - o.jobMillis)
  /** The counts that must repeat exactly for identical calls. */
  def work: (Long, Long, Long) = (jobs, tasks, shuffleBytes)
}

/** A listener registered by the benchmark; reads drain the bus first. */
final class SparkCounters extends SparkListener {
  private var jobs, tasks, cpuNs, shuffle, jobMillis = 0L
  private var active = 0
  private var activeSince = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    if (active == 0) activeSince = e.time
    active += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    active -= 1
    if (active == 0) jobMillis += e.time - activeSince
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      cpuNs += m.executorCpuTime
      shuffle += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def read(sc: SparkContext): Counts = {
    ListenerBusDrain.drain(sc)
    synchronized(Counts(jobs, tasks, cpuNs, shuffle, jobMillis))
  }
}
