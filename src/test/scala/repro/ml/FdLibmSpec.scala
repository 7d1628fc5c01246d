package repro.ml

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import java.lang.Math.{nextDown, nextUp}
import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rnd

/** The fdlibm port must equal `StrictMath` bit for bit, compared as raw
  * bits (`doubleToRawLongBits`), NaN payloads and signed zeros included:
  * on special values, on both neighbours of every branch point of the two
  * algorithms, and on random doubles over every exponent.
  */
class FdLibmSpec extends AnyFunSuite {

  private def check(name: String, port: Double => Double, strict: Double => Double)(x: Double): Unit = {
    val got = port(x); val exp = strict(x)
    if (doubleToRawLongBits(got) != doubleToRawLongBits(exp))
      fail(f"$name(${doubleToRawLongBits(x)}%016x = $x): $got (${doubleToRawLongBits(got)}%016x) " +
           f"vs StrictMath $exp (${doubleToRawLongBits(exp)}%016x)")
  }

  private val tanh = check("tanh", FdLibm.tanh, StrictMath.tanh) _
  private val expm1 = check("expm1", FdLibm.expm1, StrictMath.expm1) _

  /** `x`, its two neighbours, and the same for −x. */
  private def around(x: Double): Seq[Double] =
    Seq(nextDown(x), x, nextUp(x)).flatMap(v => Seq(v, -v))

  /** The double whose high word is `hi` and low word 0: where the C code's
    * high-word comparisons switch.
    */
  private def word(hi: Int): Double = longBitsToDouble(hi.toLong << 32)

  private val specials = Seq(0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN,
    longBitsToDouble(0x7FF0000000000001L), longBitsToDouble(0xFFF8000000000123L),
    Double.MinValue, Double.MaxValue, java.lang.Double.MIN_VALUE, -java.lang.Double.MIN_VALUE,
    java.lang.Double.MIN_NORMAL, -java.lang.Double.MIN_NORMAL, 1.0, -1.0, 0.5, -0.5)

  test("special values") {
    specials.foreach { x => tanh(x); expm1(x) }
  }

  test("tanh: both neighbours of its branch points 2^-55, 1 and 22") {
    Seq(math.pow(2, -55), 1.0, 22.0).flatMap(around).foreach(tanh)
    Seq(0x3C800000, 0x3FF00000, 0x40360000).map(word).flatMap(around).foreach(tanh)
  }

  test("expm1: both neighbours of its branch points, and where k reaches 20 and 57") {
    val ln2 = math.log(2)
    Seq(math.pow(2, -54), 0.5 * ln2, 1.5 * ln2, 56 * ln2, 709.78, 7.09782712893383973096e+02)
      .flatMap(around).foreach(expm1)
    Seq(0x3C900000, 0x3FD62E42, 0x3FD62E43, 0x3FF0A2B2, 0x4043687A, 0x40862E42).map(word)
      .flatMap(around).foreach(expm1)
    // k = (int)(x/ln2 ± 0.5) steps at about (k ∓ 0.5)·ln2; the branches
    // switch at k = 20 (k < 20) and k = 57 (k > 56)
    def k(x: Double): Int = (1.44269504088896338700e+00 * x + (if (x >= 0) 0.5 else -0.5)).toInt
    for (target <- Seq(20, 57, -2, -20, -57)) {
      var x = (target - math.signum(target) * 0.5) * ln2
      val up = target > 0
      // walk to the first double (away from 0) whose k reaches the target
      while (if (up) k(x) >= target else k(x) <= target) x = if (up) nextDown(x) else nextUp(x)
      while (if (up) k(x) < target else k(x) > target) x = if (up) nextUp(x) else nextDown(x)
      Seq(nextDown(x), x, nextUp(x)).foreach(expm1)
    }
  }

  test("10^7 random doubles: half over every exponent, half over the exponents both algorithms branch in") {
    val g = new Rnd.Gen(0xFD1B)
    var i = 0
    while (i < 10000000) {
      val bits = g.nextLong()
      val x =
        if ((i & 1) == 0) longBitsToDouble(bits) // uniform over the bit patterns: every exponent
        else {
          // exponent uniform over [-64, 11], any sign and mantissa
          val e = 1023 - 64 + java.lang.Long.remainderUnsigned(bits >>> 53, 76).toInt
          longBitsToDouble((bits & 0x800FFFFFFFFFFFFFL) | (e.toLong << 52))
        }
      tanh(x); expm1(x)
      i += 1
    }
  }
}
