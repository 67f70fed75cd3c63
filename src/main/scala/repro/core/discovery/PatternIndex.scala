package repro.core.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType
import repro.core.PFDCheck

/** The hash-based inverted list of §4.3 (lines 5–12), as a DataFrame:
  * one row per (tid, attr, token, pos) with `pos` a token index (tokenized
  * columns, full value added as pos = -1) or a character offset (n-gram
  * columns). `patternRows` applies the substring-pruning optimization of
  * §4.4: among patterns of one attribute appearing in exactly the same set
  * of tuples, only the most specific (longest) survives — 'Egypt' is kept
  * over 'Egy' in Example 8.
  */
object PatternIndex {

  /** Full-value sentinel position for tokenized columns. */
  val FullValuePos: Int = -1

  /** Build the inverted index for the qualitative columns of `profiles`. */
  def build(df0: DataFrame, profiles: Seq[ColumnProfile]): DataFrame = {
    val df = PFDCheck.withTid(df0)
    val useful = profiles.filter(_.isQualitative)
    require(useful.nonEmpty, "no qualitative columns to index")

    // Pure-symbol substrings (a lone space or dash) carry no semantics —
    // tokenization already discards them as separators, and keeping them as
    // n-grams lets junk like "city has a space at offset 3" pass f.
    def informative(t: String): Boolean = t.exists(_.isLetterOrDigit)

    val parts = useful.map { p =>
      val extractor =
        if (p.useTokenize)
          udf { (s: String) =>
            if (s == null) Seq.empty[(String, Int, Boolean)]
            else Tokenizer.tokens(s).filter(t => informative(t.token))
              .map(t => (t.token, t.pos, t.pos == 0 && t.atEnd)) :+ ((s, FullValuePos, true))
          }
        else
          udf { (s: String) =>
            Tokenizer.ngrams(s).filter(t => informative(t.token)).map(t => (t.token, t.pos, t.atEnd))
          }
      df.select(
          col(PFDCheck.TidCol) as "tid",
          lit(p.name) as "attr",
          explode(extractor(col(p.name).cast(StringType))) as "tp")
        .select(col("tid"), col("attr"), col("tp._1") as "token", col("tp._2") as "pos",
                col("tp._3") as "full")
    }
    parts.reduce(_ unionByName _)
  }

  /** Index rows with their pattern's statistics within its (slice…, attr):
    * `cnt` (tuples), `isFull` (the whole value on every occurrence) and
    * `kept` (survives substring pruning and is among the `maxPatternsPerAttr`
    * most frequent survivors), all by windows over one repartition by
    * (slice…, attr). The tid-set signature used for pruning is (cnt,
    * sum(tid), sum(hash(tid))) — identical signatures are taken as identical
    * tid sets (a 32-bit murmur collision on top of equal counts and tid sums
    * is negligible and at worst drops one pattern). Ties are broken on
    * (token, pos), never on row order, so partitioning does not matter.
    */
  private[discovery] def patternRows(index: DataFrame, slice: Seq[String], maxPatternsPerAttr: Int): DataFrame = {
    val key = (slice :+ "attr").map(col)
    val pattern = Window.partitionBy(key :+ col("token") :+ col("pos"): _*)
    val bySig = Window.partitionBy(key ++ Seq(col("cnt"), col("sigSum"), col("sigHash")): _*)
      .orderBy(length(col("token")).desc, col("pos").asc, col("token").asc)
    // substring-pruned patterns rank after every survivor
    val byCnt = Window.partitionBy(key: _*)
      .orderBy((col("__sig") > 1).asc, col("cnt").desc, length(col("token")).desc,
               col("token").asc, col("pos").asc)
    index.repartition(key: _*)
      .withColumn("cnt", count(lit(1)).over(pattern))
      .withColumn("sigSum", sum("tid").over(pattern))
      .withColumn("sigHash", sum(hash(col("tid")).cast("long")).over(pattern))
      .withColumn("isFull", min(when(col("full"), 1).otherwise(0)).over(pattern) === 1)
      .withColumn("__sig", dense_rank().over(bySig))
      .withColumn("kept", col("__sig") === 1 && dense_rank().over(byCnt) <= maxPatternsPerAttr)
      .drop("sigSum", "sigHash", "__sig")
  }

  /** Per-pattern statistics after substring pruning: one row per kept
    * pattern of [[patternRows]], with columns attr, token, pos, cnt, isFull.
    */
  def prunedStats(index: DataFrame, maxPatternsPerAttr: Int = 5000): DataFrame =
    patternRows(index, Nil, maxPatternsPerAttr)
      .filter(col("kept"))
      .withColumn("__r", row_number().over(Window.partitionBy("attr", "token", "pos").orderBy("tid")))
      .filter(col("__r") === 1)
      .select("attr", "token", "pos", "cnt", "isFull")
}
