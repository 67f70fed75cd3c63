package repro.core.discovery

/** Partial-value extraction (restriction (i) of §4.2).
  *
  * `tokens` splits on special characters — strong signals for meaningful
  * substrings (F-9-107, "John Charles"). `ngrams` emits the prefixes of
  * code-like columns; substring pruning in the index collapses most of them
  * anyway (§4.4).
  */
object Tokenizer {

  /** A mined partial value: the substring, its position (token index for
    * `tokens`, character offset for `ngrams`), and whether anything follows
    * it in the original value (token boundary information used when the
    * pattern is turned into a constrained pattern).
    */
  final case class Part(token: String, pos: Int, atEnd: Boolean)

  private def isSep(c: Char): Boolean = !c.isLetterOrDigit

  /** Split into separator-delimited tokens with token indexes. */
  def tokens(s: String): Seq[Part] = {
    if (s == null || s.isEmpty) return Seq.empty
    val out = Vector.newBuilder[Part]
    var i = 0
    var pos = 0
    val n = s.length
    while (i < n) {
      while (i < n && isSep(s(i))) i += 1
      if (i < n) {
        val start = i
        while (i < n && !isSep(s(i))) i += 1
        // trailing separators still mean "not at end" for boundary purposes
        out += Part(s.substring(start, i), pos, atEnd = i == n)
        pos += 1
      }
    }
    out.result()
  }

  /** The prefix n-grams of `s` (offset 0) of length 1..`maxValueLen`, plus
    * the full value when it is longer. Every pattern the paper mines or
    * lists (Table 3: `850\D{7}`, `6060\D`) anchors at offset 0, while
    * mid-string offsets mostly surface positional coincidences ("an" at
    * offset 3 of both Atlanta and Savannah); prefixes also bound C2
    * linearly instead of quadratically.
    */
  def ngrams(s: String, maxValueLen: Int = 12): Seq[Part] = {
    if (s == null || s.isEmpty) return Seq.empty
    val n = s.length
    val prefixes = (1 to math.min(n, maxValueLen)).map(l => Part(s.substring(0, l), 0, atEnd = l == n))
    if (n > maxValueLen) prefixes :+ Part(s, 0, atEnd = true) else prefixes
  }
}
