package repro.forest

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rnd

class ForestSpec extends AnyFunSuite {

  // ---------------------------------------------------------- SimFeatures

  test("feature count matches nFeatures") {
    val f = SimFeatures.features(Seq("a b", "x"), Seq("a c", "y"))
    assert(f.length == SimFeatures.nFeatures(2))
  }

  test("identical records give maximal similarity features") {
    val f = SimFeatures.features(Seq("alpha beta", "42"), Seq("alpha beta", "42"))
    assert(f(0) == 1.0) // token jaccard attr0
    assert(f(2) == 1.0) // exact equality attr0
    assert(f(7) == 1.0) // numeric sim attr1
  }

  test("disjoint records give zero token similarity") {
    val f = SimFeatures.features(Seq("aaa"), Seq("zzz"))
    assert(f(0) == 0.0)
  }

  test("numericSim") {
    assert(SimFeatures.numericSim("100", "100") == 1.0)
    assert(math.abs(SimFeatures.numericSim("100", "90") - 0.9) < 1e-9)
    assert(SimFeatures.numericSim("abc", "100") == 0.0)
    assert(SimFeatures.numericSim("", "") == 0.0)
  }

  test("features reject schema mismatch") {
    intercept[IllegalArgumentException](SimFeatures.features(Seq("a"), Seq("a", "b")))
  }

  // --------------------------------------------------------- DecisionTree

  private def xor(n: Int, seed: Long): (IndexedSeq[Array[Double]], IndexedSeq[Double]) = {
    val g = new Rnd.Gen(seed)
    val xs = IndexedSeq.fill(n)(Array(g.nextDouble(), g.nextDouble()))
    val ys = xs.map(x => if ((x(0) > 0.5) != (x(1) > 0.5)) 1.0 else 0.0)
    (xs, ys)
  }

  test("tree fits XOR (non-linear) with full feature set") {
    val (xs, ys) = xor(300, 1)
    val tree = DecisionTree.fit(xs, ys, xs.indices.toArray,
      DecisionTree.Config(maxDepth = 6, featureSubset = 2), new Rnd.Gen(2))
    val acc = xs.indices.count(i => (DecisionTree.predict(tree, xs(i)) > 0.5) == (ys(i) > 0.5)).toDouble / xs.size
    assert(acc > 0.9, s"XOR accuracy $acc")
  }

  test("pure node becomes a leaf") {
    val xs = IndexedSeq(Array(1.0), Array(2.0), Array(3.0))
    val ys = IndexedSeq(1.0, 1.0, 1.0)
    val tree = DecisionTree.fit(xs, ys, xs.indices.toArray, DecisionTree.Config(), new Rnd.Gen(3))
    assert(tree.isInstanceOf[Leaf])
    assert(DecisionTree.predict(tree, Array(9.0)) == 1.0)
  }

  test("maxDepth 0 yields a leaf with the class prior") {
    val xs = IndexedSeq(Array(0.0), Array(1.0), Array(2.0), Array(3.0))
    val ys = IndexedSeq(1.0, 1.0, 0.0, 0.0)
    val tree = DecisionTree.fit(xs, ys, xs.indices.toArray,
      DecisionTree.Config(maxDepth = 0), new Rnd.Gen(4))
    assert(tree == Leaf(0.5))
  }

  test("a single split separates a threshold rule") {
    val xs = (0 until 100).map(i => Array(i / 100.0))
    val ys = xs.map(x => if (x(0) > 0.6) 1.0 else 0.0)
    val tree = DecisionTree.fit(xs, ys, xs.indices.toArray,
      DecisionTree.Config(maxDepth = 3, featureSubset = 1), new Rnd.Gen(5))
    val acc = xs.indices.count(i => (DecisionTree.predict(tree, xs(i)) > 0.5) == (ys(i) > 0.5)).toDouble / xs.size
    assert(acc > 0.97, s"threshold accuracy $acc")
  }

  test("tree fitting is deterministic in the rng seed") {
    val (xs, ys) = xor(100, 6)
    val a = DecisionTree.fit(xs, ys, xs.indices.toArray, DecisionTree.Config(), new Rnd.Gen(7))
    val b = DecisionTree.fit(xs, ys, xs.indices.toArray, DecisionTree.Config(), new Rnd.Gen(7))
    assert(a == b)
  }

  // --------------------------------------------------------- RandomForest

  test("forest improves on hard noise and exposes vote fractions in [0,1]") {
    val (xs, ys) = xor(300, 8)
    val f = RandomForest.fit(xs, ys, nTrees = 15, seed = 9)
    assert(f.trees.length == 15)
    xs.take(20).foreach { x =>
      val v = f.voteFraction(x)
      assert(v >= 0.0 && v <= 1.0)
    }
    val acc = xs.indices.count(i => f.predict(xs(i)) == (ys(i) > 0.5)).toDouble / xs.size
    assert(acc > 0.9, s"forest accuracy $acc")
  }

  test("variance is p(1-p) and peaks at maximal disagreement") {
    val (xs, ys) = xor(100, 10)
    val f = RandomForest.fit(xs, ys, nTrees = 10, seed = 11)
    xs.take(10).foreach { x =>
      val p = f.voteFraction(x)
      assert(math.abs(f.variance(x) - p * (1 - p)) < 1e-12)
    }
  }

  test("bootstrap trees differ") {
    val (xs, ys) = xor(200, 12)
    val f = RandomForest.fit(xs, ys, nTrees = 5, seed = 13)
    assert(f.trees.distinct.size > 1)
  }

  test("forest is deterministic in seed") {
    val (xs, ys) = xor(80, 14)
    val a = RandomForest.fit(xs, ys, 5, seed = 15)
    val b = RandomForest.fit(xs, ys, 5, seed = 15)
    assert(a.trees == b.trees)
  }
}
