package repro.util

/** Deterministic randomness utilities.
  *
  * Every stochastic component in the reproduction (data generation, embedding
  * hashing, committee masks, optimizer init, selection tie-breaks) draws from
  * seeded generators built here, so each experiment is a pure function of its
  * configured seed — a requirement for the DuckDB oracle and for diffable
  * benchmark rows.
  */
object Rnd {

  /** 64-bit splitmix step — used both as a PRNG and as a stable scrambler. */
  def splitmix64(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D4A9C83AB8C2FCL // 0x94D049BB133111EB variant is fine too
    x ^ (x >>> 31)
  }

  /** Stable 64-bit hash of a string (FNV-1a folded through splitmix).
    * Unlike `String.hashCode` this is 64-bit and avalanche-mixed, so it is
    * usable as a seed for per-token embedding vectors.
    */
  def hash64(s: String): Long = {
    var h = 0xCBF29CE484222325L
    var i = 0
    while (i < s.length) {
      h ^= s.charAt(i).toLong
      h *= 0x100000001B3L
      i += 1
    }
    splitmix64(h)
  }

  /** Combine two hashes/seeds into one (order-sensitive). */
  def combine(a: Long, b: Long): Long = splitmix64(a * 0x9E3779B97F4A7C15L + b)

  /** Mutable xorshift128+ generator — fast, good enough for simulation, and
    * fully deterministic in its seed (never seeded from wall-clock).
    */
  final class Gen(seed: Long) {
    private var s0 = splitmix64(seed)
    private var s1 = splitmix64(s0)

    def nextLong(): Long = {
      var x = s0
      val y = s1
      s0 = y
      x ^= x << 23
      s1 = x ^ y ^ (x >>> 17) ^ (y >>> 26)
      s1 + y
    }

    /** Uniform in [0, 1). */
    def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16

    /** Uniform int in [0, n). */
    def nextInt(n: Int): Int = {
      require(n > 0, s"nextInt bound must be positive, got $n")
      (nextDouble() * n).toInt.min(n - 1)
    }

    /** Standard gaussian via Box–Muller. */
    def nextGaussian(): Double = {
      val u1 = math.max(nextDouble(), 1e-300)
      val u2 = nextDouble()
      math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
    }

    def nextBoolean(p: Double): Boolean = nextDouble() < p

    /** Fisher–Yates shuffle (in place) of an index range, returns permutation. */
    def permutation(n: Int): Array[Int] = {
      val a = Array.tabulate(n)(identity)
      var i = n - 1
      while (i > 0) {
        val j = nextInt(i + 1)
        val t = a(i); a(i) = a(j); a(j) = t
        i -= 1
      }
      a
    }

    /** Sample `k` distinct indices from [0, n) (k <= n). */
    def sampleDistinct(n: Int, k: Int): Array[Int] = {
      require(k <= n, s"cannot sample $k distinct from $n")
      if (k * 3 >= n) permutation(n).take(k)
      else {
        val seen = scala.collection.mutable.LinkedHashSet.empty[Int]
        while (seen.size < k) seen += nextInt(n)
        seen.toArray
      }
    }
  }
}
