package dialbench

/** Minimal JSON rendering for the benchmark's output lines. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  /** A number with all its digits; non-finite values become null. */
  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString

  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
