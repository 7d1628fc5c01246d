package repro.ml

/** The matcher head's arithmetic as it stood before its loops were blocked,
  * kept as the exact reference: `hidden` one unit at a time with
  * `math.tanh`, and a `backprop` that computes the hidden layer itself and
  * adds each unit's terms into the input gradient one unit per pass. Read
  * through an [[Mlp]]'s parameter array (W1, b1, w2, b2). `MlpReferenceSpec`
  * and `MatcherSpec` compare the program's results with these by exact `==`.
  */
object ReferenceMlp {

  def hidden(m: Mlp, x: Array[Double]): Array[Double] = {
    val p = m.params; val b1Off = Mlp.NHidden * m.nIn
    val h = new Array[Double](Mlp.NHidden)
    var j = 0
    while (j < Mlp.NHidden) {
      var s = p(b1Off + j)
      val off = j * m.nIn
      var i = 0
      while (i < m.nIn) { s += p(off + i) * x(i); i += 1 }
      h(j) = math.tanh(s)
      j += 1
    }
    h
  }

  def outLogit(m: Mlp, h: Array[Double]): Double = {
    val w2Off = Mlp.NHidden * m.nIn + Mlp.NHidden
    var s = 0.0; var j = 0
    while (j < Mlp.NHidden) { s += m.params(w2Off + j) * h(j); j += 1 }
    s + m.params(m.nParams - 1)
  }

  def score(m: Mlp, x: Array[Double]): Double = outLogit(m, hidden(m, x))

  def prob(m: Mlp, x: Array[Double]): Double = Mlp.sigmoid(score(m, x))

  def backprop(m: Mlp, x: Array[Double], y: Double, gFlat: Array[Double]): Array[Double] = {
    val params = m.params; val nIn = m.nIn; val nHidden = Mlp.NHidden
    val b1Off = nHidden * nIn; val w2Off = b1Off + nHidden; val b2Off = m.nParams - 1
    val h = hidden(m, x)
    val p = Mlp.sigmoid(outLogit(m, h))
    val dScore = p - y
    val gxOut = new Array[Double](nIn)
    var j = 0
    while (j < nHidden) { gFlat(w2Off + j) += dScore * h(j); j += 1 }
    gFlat(b2Off) += dScore
    j = 0
    while (j < nHidden) {
      val dH = dScore * params(w2Off + j) * (1.0 - h(j) * h(j))
      gFlat(b1Off + j) += dH
      val off = j * nIn
      var i = 0
      while (i < nIn) {
        gFlat(off + i) += dH * x(i)
        gxOut(i) += dH * params(off + i)
        i += 1
      }
      j += 1
    }
    gxOut
  }
}
