/*
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunPro, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 */
package repro.ml

/** `tanh` and `expm1` of fdlibm 5.3 (`s_tanh.c`, `s_expm1.c`), ported line
  * for line to plain JVM arithmetic. `StrictMath` specifies these same
  * algorithms, so the results equal `StrictMath.tanh` and `StrictMath.expm1`
  * bit for bit (`FdLibmSpec`). On JDK 17 `Math.tanh` is the native
  * `StrictMath.tanh`, a JNI call per value; this port is inlined by the JIT.
  * The C code's word accesses (`__HI`, `__LO`) become bit operations on the
  * double's raw bits.
  */
object FdLibm {
  private val Huge = 1.0e+300
  private val Tiny = 1.0e-300
  private val OThreshold = 7.09782712893383973096e+02 // 0x40862E42 FEFA39EF
  private val Ln2Hi = 6.93147180369123816490e-01      // 0x3FE62E42 FEE00000
  private val Ln2Lo = 1.90821492927058770002e-10      // 0x3DEA39EF 35793C76
  private val InvLn2 = 1.44269504088896338700e+00     // 0x3FF71547 652B82FE
  // scaled coefficients of expm1's rational approximation
  private val Q1 = -3.33333333333331316428e-02 // 0xBFA11111 111110F4
  private val Q2 = 1.58730158725481460165e-03  // 0x3F5A01A0 19FE5585
  private val Q3 = -7.93650757867487942473e-05 // 0xBF14CE19 9EAADBB7
  private val Q4 = 4.00821782732936239552e-06  // 0x3ED0CFCA 86E65239
  private val Q5 = -2.01099218183624371326e-07 // 0xBE8AFDB7 6E09C32D

  private def hi(x: Double): Int = (java.lang.Double.doubleToRawLongBits(x) >>> 32).toInt
  private def lo(x: Double): Int = java.lang.Double.doubleToRawLongBits(x).toInt

  /** `x` with its high word replaced by `h`. */
  private def withHi(x: Double, h: Int): Double =
    java.lang.Double.longBitsToDouble(
      (h.toLong << 32) | (java.lang.Double.doubleToRawLongBits(x) & 0xFFFFFFFFL))

  /** Hyperbolic tangent, fdlibm's method:
    *  - |x| ≤ 2⁻⁵⁵: x·(1 + x);
    *  - 2⁻⁵⁵ < |x| < 1: −t / (t + 2), t = expm1(−2|x|);
    *  - 1 ≤ |x| < 22: 1 − 2 / (t + 2), t = expm1(2|x|);
    *  - |x| ≥ 22: 1 − tiny, which rounds to 1;
    * with the sign of x, and tanh(±∞) = ±1, tanh(NaN) = NaN.
    */
  def tanh(x: Double): Double = {
    val jx = hi(x)
    val ix = jx & 0x7FFFFFFF
    if (ix >= 0x7FF00000) { // x is INF or NaN
      if (jx >= 0) 1.0 / x + 1.0 // tanh(+-inf) = +-1
      else 1.0 / x - 1.0         // tanh(NaN) = NaN
    } else {
      val z =
        if (ix < 0x40360000) { // |x| < 22
          if (ix < 0x3C800000) return x * (1.0 + x) // |x| < 2**-55: tanh(small) = small
          if (ix >= 0x3FF00000) { // |x| >= 1
            val t = expm1(2.0 * math.abs(x))
            1.0 - 2.0 / (t + 2.0)
          } else {
            val t = expm1(-2.0 * math.abs(x))
            -t / (t + 2.0)
          }
        } else 1.0 - Tiny // |x| >= 22: +-1, inexact
      if (jx >= 0) z else -z
    }
  }

  /** exp(x) − 1, fdlibm's method: reduce x = k·ln2 + r with |r| ≤ 0.5·ln2,
    * approximate expm1(r) by a rational function in r²/2, then scale by 2ᵏ
    * through the exponent bits.
    */
  def expm1(x0: Double): Double = {
    var x = x0
    var hx = hi(x)
    val xsb = hx & 0x80000000 // sign bit of x
    hx &= 0x7FFFFFFF          // high word of |x|

    // filter out huge and non-finite arguments
    if (hx >= 0x4043687A) { // |x| >= 56*ln2
      if (hx >= 0x40862E42) { // |x| >= 709.78...
        if (hx >= 0x7FF00000) {
          return if (((hx & 0xFFFFF) | lo(x)) != 0) x + x // NaN
                 else if (xsb == 0) x else -1.0          // exp(+-inf) = {inf, -1}
        }
        if (x > OThreshold) return Huge * Huge // overflow
      }
      if (xsb != 0) { // x < -56*ln2: -1.0, inexact
        if (x + Tiny < 0.0) return Tiny - 1.0
      }
    }

    // argument reduction
    var k = 0
    var c = 0.0
    if (hx > 0x3FD62E42) { // |x| > 0.5*ln2
      var hi0 = 0.0
      var lo0 = 0.0
      if (hx < 0x3FF0A2B2) { // and |x| < 1.5*ln2
        if (xsb == 0) { hi0 = x - Ln2Hi; lo0 = Ln2Lo; k = 1 }
        else { hi0 = x + Ln2Hi; lo0 = -Ln2Lo; k = -1 }
      } else {
        k = (InvLn2 * x + (if (xsb == 0) 0.5 else -0.5)).toInt
        val t = k.toDouble
        hi0 = x - t * Ln2Hi // t*ln2_hi is exact here
        lo0 = t * Ln2Lo
      }
      x = hi0 - lo0
      c = (hi0 - x) - lo0
    } else if (hx < 0x3C900000) { // |x| < 2**-54: x, inexact when x != 0
      val t = Huge + x
      return x - (t - (Huge + x))
    }

    // x is now in the primary range
    val hfx = 0.5 * x
    val hxs = x * hfx
    val r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))))
    val t = 3.0 - r1 * hfx
    var e = hxs * ((r1 - t) / (6.0 - x * t))
    if (k == 0) x - (x * e - hxs) // c is 0
    else {
      e = x * (e - c) - c
      e -= hxs
      if (k == -1) 0.5 * (x - e) - 0.5
      else if (k == 1) {
        if (x < -0.25) -2.0 * (e - (x + 0.5))
        else 1.0 + 2.0 * (x - e)
      } else if (k <= -2 || k > 56) { // suffices to return exp(x) - 1
        val y = 1.0 - (e - x)
        withHi(y, hi(y) + (k << 20)) - 1.0 // add k to y's exponent
      } else if (k < 20) {
        val t = withHi(1.0, 0x3FF00000 - (0x200000 >> k)) // 1 - 2**-k
        val y = t - (e - x)
        withHi(y, hi(y) + (k << 20))
      } else {
        val t = withHi(1.0, (0x3FF - k) << 20) // 2**-k
        var y = x - (e + t)
        y += 1.0
        withHi(y, hi(y) + (k << 20))
      }
    }
  }
}
