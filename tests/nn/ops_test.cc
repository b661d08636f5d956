#include "nn/ops.h"

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "tests/nn/grad_check.h"

namespace tspn::nn {
namespace {

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.ToVector(), std::vector<float>({11, 22, 33, 44}));
}

TEST(OpsTest, AddBroadcastRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.ToVector(), std::vector<float>({11, 22, 33, 14, 25, 36}));
}

TEST(OpsTest, AddBroadcastOuterSum) {
  Tensor col = Tensor::FromVector({3, 1}, {1, 2, 3});
  Tensor row = Tensor::FromVector({1, 2}, {10, 20});
  Tensor c = Add(col, row);
  EXPECT_EQ(c.shape(), Shape({3, 2}));
  EXPECT_EQ(c.ToVector(), std::vector<float>({11, 21, 12, 22, 13, 23}));
}

TEST(OpsTest, SubMulDiv) {
  Tensor a = Tensor::FromVector({2}, {8, 6});
  Tensor b = Tensor::FromVector({2}, {2, 3});
  EXPECT_EQ(Sub(a, b).ToVector(), std::vector<float>({6, 3}));
  EXPECT_EQ(Mul(a, b).ToVector(), std::vector<float>({16, 18}));
  EXPECT_EQ(Div(a, b).ToVector(), std::vector<float>({4, 2}));
}

TEST(OpsTest, ScalarOps) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  EXPECT_EQ(AddScalar(a, 1.0f).ToVector(), std::vector<float>({2, 3, 4}));
  EXPECT_EQ(MulScalar(a, 2.0f).ToVector(), std::vector<float>({2, 4, 6}));
  EXPECT_EQ(Neg(a).ToVector(), std::vector<float>({-1, -2, -3}));
}

TEST(OpsTest, UnaryMath) {
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  EXPECT_NEAR(Exp(a).at(1), std::exp(1.0f), 1e-5);
  Tensor b = Tensor::FromVector({2}, {1.0f, std::exp(1.0f)});
  EXPECT_NEAR(Log(b).at(1), 1.0f, 1e-5);
  Tensor c = Tensor::FromVector({2}, {4.0f, 9.0f});
  EXPECT_NEAR(Sqrt(c).at(1), 3.0f, 1e-5);
}

TEST(OpsTest, ReluFamilies) {
  Tensor a = Tensor::FromVector({3}, {-2.0f, 0.0f, 3.0f});
  EXPECT_EQ(Relu(a).ToVector(), std::vector<float>({0, 0, 3}));
  Tensor lr = LeakyRelu(a, 0.1f);
  EXPECT_NEAR(lr.at(0), -0.2f, 1e-6);
  EXPECT_NEAR(lr.at(2), 3.0f, 1e-6);
  Tensor e = Elu(a, 1.0f);
  EXPECT_NEAR(e.at(0), std::exp(-2.0f) - 1.0f, 1e-5);
  EXPECT_NEAR(e.at(2), 3.0f, 1e-6);
}

TEST(OpsTest, SigmoidTanhValues) {
  Tensor a = Tensor::FromVector({1}, {0.0f});
  EXPECT_NEAR(Sigmoid(a).item(), 0.5f, 1e-6);
  EXPECT_NEAR(Tanh(a).item(), 0.0f, 1e-6);
}

TEST(OpsTest, ReshapeAndTranspose) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), Shape({3, 2}));
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_EQ(t.ToVector(), std::vector<float>({1, 4, 2, 5, 3, 6}));
}

TEST(OpsTest, ConcatAndStack) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.shape(), Shape({3, 2}));
  EXPECT_EQ(c.ToVector(), std::vector<float>({1, 2, 3, 4, 5, 6}));

  // A single part comes back as is (no copy), and its gradient reaches the
  // input.
  Tensor p = Tensor::FromVector({2, 2}, {1, 2, 3, 4}, /*requires_grad=*/true);
  Tensor one = ConcatRows({p});
  EXPECT_EQ(one.shape(), Shape({2, 2}));
  EXPECT_EQ(one.data(), p.data());
  SumAll(Mul(one, Tensor::FromVector({2, 2}, {1, 2, 3, 4}))).Backward();
  EXPECT_EQ(p.GradToVector(), std::vector<float>({1, 2, 3, 4}));

  Tensor x = Tensor::FromVector({2}, {1, 2});
  Tensor y = Tensor::FromVector({2}, {3, 4});
  Tensor s = StackRows({x, y});
  EXPECT_EQ(s.shape(), Shape({2, 2}));

  Tensor cl = ConcatLast({x, y});
  EXPECT_EQ(cl.shape(), Shape({4}));
  EXPECT_EQ(cl.ToVector(), std::vector<float>({1, 2, 3, 4}));

  Tensor m1 = Tensor::FromVector({2, 1}, {1, 2});
  Tensor m2 = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor cm = ConcatLast({m1, m2});
  EXPECT_EQ(cm.shape(), Shape({2, 3}));
  EXPECT_EQ(cm.ToVector(), std::vector<float>({1, 3, 4, 2, 5, 6}));
}

TEST(OpsTest, SliceAndRow) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceRows(a, 1, 2);
  EXPECT_EQ(s.ToVector(), std::vector<float>({3, 4, 5, 6}));
  Tensor r = Row(a, 2);
  EXPECT_EQ(r.shape(), Shape({2}));
  EXPECT_EQ(r.ToVector(), std::vector<float>({5, 6}));
}

TEST(OpsTest, SliceRowsOfAllRowsReturnsInput) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4}, /*requires_grad=*/true);
  Tensor s = SliceRows(a, 0, 2);
  EXPECT_EQ(s.node(), a.node());
  EXPECT_EQ(s.ToVector(), std::vector<float>({1, 2, 3, 4}));
  SumAll(Mul(s, s)).Backward();  // d/da sum(a^2) = 2a
  EXPECT_EQ(a.GradToVector(), std::vector<float>({2, 4, 6, 8}));
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(SumAll(a).item(), 10.0f);
  EXPECT_EQ(MeanAll(a).item(), 2.5f);
  EXPECT_EQ(SumRows(a).ToVector(), std::vector<float>({4, 6}));
  EXPECT_EQ(MeanRows(a).ToVector(), std::vector<float>({2, 3}));
}

TEST(OpsTest, MatMulKnownResult) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.ToVector(), std::vector<float>({58, 64, 139, 154}));
}

TEST(OpsTest, MatVecAndDot) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor v = Tensor::FromVector({2}, {1, 1});
  EXPECT_EQ(MatVec(a, v).ToVector(), std::vector<float>({3, 7}));
  Tensor u = Tensor::FromVector({2}, {2, 3});
  EXPECT_EQ(Dot(v, u).item(), 5.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 0, 0, 0});
  Tensor s = Softmax(a);
  for (int r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (int c = 0; c < 3; ++c) total += s.at(r * 3 + c);
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
  // Uniform logits -> uniform distribution.
  EXPECT_NEAR(s.at(3), 1.0f / 3.0f, 1e-5);
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor a = Tensor::FromVector({3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor s = Softmax(a);
  Tensor b = Tensor::FromVector({3}, {0.0f, 1.0f, 2.0f});
  Tensor t = Softmax(b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(s.at(i), t.at(i), 1e-5);
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = Tensor::FromVector({4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ls = LogSoftmax(a);
  Tensor s = Softmax(a);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(ls.at(i), std::log(s.at(i)), 1e-5);
}

TEST(OpsTest, L2NormalizeUnitNorm) {
  Tensor a = Tensor::FromVector({2, 2}, {3, 4, 0.6f, 0.8f});
  Tensor n = L2Normalize(a);
  EXPECT_NEAR(n.at(0), 0.6f, 1e-5);
  EXPECT_NEAR(n.at(1), 0.8f, 1e-5);
  EXPECT_NEAR(n.at(2), 0.6f, 1e-5);
  EXPECT_NEAR(n.at(3), 0.8f, 1e-5);
}

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  Tensor x = Tensor::FromVector({2, 4}, {1, 2, 3, 4, -1, -2, -3, -4});
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNorm(x, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int c = 0; c < 4; ++c) mean += y.at(r * 4 + c);
    mean /= 4.0f;
    for (int c = 0; c < 4; ++c) {
      float d = y.at(r * 4 + c) - mean;
      var += d * d;
    }
    var /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4);
    EXPECT_NEAR(var, 1.0f, 1e-2);
  }
}

TEST(OpsTest, DropoutTrainingZerosAndScales) {
  common::Rng rng(3);
  Tensor a = Tensor::Full({10000}, 1.0f);
  Tensor d = Dropout(a, 0.5f, rng, /*training=*/true);
  int64_t zeros = 0;
  for (int64_t i = 0; i < d.numel(); ++i) {
    if (d.at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(d.at(i), 2.0f, 1e-6);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(d.numel()), 0.5, 0.05);
}

TEST(OpsTest, DropoutEvalIsIdentity) {
  common::Rng rng(3);
  Tensor a = Tensor::Full({16}, 1.0f);
  Tensor d = Dropout(a, 0.5f, rng, /*training=*/false);
  for (int64_t i = 0; i < d.numel(); ++i) EXPECT_EQ(d.at(i), 1.0f);
}

TEST(OpsTest, EmbeddingGatherPicksRows) {
  Tensor w = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor e = EmbeddingGather(w, {2, 0, 2});
  EXPECT_EQ(e.shape(), Shape({3, 2}));
  EXPECT_EQ(e.ToVector(), std::vector<float>({5, 6, 1, 2, 5, 6}));
}

TEST(OpsTest, CrossEntropyMatchesManual) {
  Tensor logits = Tensor::FromVector({3}, {1.0f, 2.0f, 3.0f});
  Tensor loss = CrossEntropyWithLogits(logits, 2);
  double denom = std::exp(1.0) + std::exp(2.0) + std::exp(3.0);
  EXPECT_NEAR(loss.item(), -std::log(std::exp(3.0) / denom), 1e-5);
}

TEST(OpsTest, ArcFaceTargetPenalized) {
  Tensor cosines = Tensor::FromVector({3}, {0.9f, 0.5f, 0.2f});
  Tensor plain = ArcFaceLogits(cosines, 0, /*scale=*/10.0f, /*margin=*/0.0f);
  Tensor margined = ArcFaceLogits(cosines, 0, /*scale=*/10.0f, /*margin=*/0.3f);
  // Margin only reduces the target logit.
  EXPECT_LT(margined.at(0), plain.at(0));
  EXPECT_EQ(margined.at(1), plain.at(1));
  EXPECT_EQ(margined.at(2), plain.at(2));
  // cos(theta + m) identity for the target.
  float theta = std::acos(0.9f);
  EXPECT_NEAR(margined.at(0), 10.0f * std::cos(theta + 0.3f), 1e-4);
}

TEST(OpsTest, NoGradSkipsGraphConstruction) {
  Tensor a = Tensor::Full({2}, 1.0f, /*requires_grad=*/true);
  NoGradGuard guard;
  Tensor b = Add(a, a);
  EXPECT_FALSE(b.requires_grad());
}

// --- Fast-path vs generic-path parity ---------------------------------------
// The same-shape and scalar binary layouts bypass the broadcast odometer
// entirely; these tests pin them to the generic path on identical numbers.

/// Stacks `b` twice into a [2, ...b.shape] tensor, forcing the generic
/// broadcast layout when combined with a plain `a` (2 != 1 on a new axis).
Tensor DuplicateLeading(const Tensor& b) {
  std::vector<float> doubled = b.ToVector();
  std::vector<float> data = doubled;
  data.insert(data.end(), doubled.begin(), doubled.end());
  Shape shape = b.shape();
  shape.insert(shape.begin(), 2);
  return Tensor::FromVector(shape, std::move(data));
}

TEST(OpsFastPathTest, SameShapeMatchesGenericBroadcastValues) {
  common::Rng rng(11);
  Tensor a = Tensor::RandomUniform({5, 7}, 1.0f, rng);
  Tensor b = Tensor::RandomUniform({5, 7}, 1.0f, rng);
  // Generic layout: a broadcast over the leading axis of [2, 5, 7].
  Tensor b2 = DuplicateLeading(b);
  for (auto op : {Add, Sub, Mul, Div}) {
    Tensor fast = op(a, b);  // same-shape fast path
    Tensor generic = op(a, b2);
    ASSERT_EQ(generic.shape(), Shape({2, 5, 7}));
    // Both planes of the generic result must equal the fast result bitwise:
    // identical arithmetic per element, only the traversal differs.
    for (int64_t i = 0; i < fast.numel(); ++i) {
      EXPECT_EQ(generic.at(i), fast.at(i)) << "plane 0 element " << i;
      EXPECT_EQ(generic.at(fast.numel() + i), fast.at(i))
          << "plane 1 element " << i;
    }
  }
}

TEST(OpsFastPathTest, ScalarOperandMatchesFullTensorValues) {
  common::Rng rng(12);
  Tensor a = Tensor::RandomUniform({6, 4}, 1.0f, rng);
  const float s = 0.37f;
  Tensor scalar = Tensor::Scalar(s);
  Tensor full = Tensor::Full({6, 4}, s);
  for (auto op : {Add, Sub, Mul, Div}) {
    testing::CheckTensorsNear(op(a, scalar), op(a, full));  // scalar-rhs fast path
    testing::CheckTensorsNear(op(scalar, a), op(full, a));  // scalar-lhs fast path
  }
}

TEST(OpsFastPathTest, SameShapeGradsMatchGenericBroadcast) {
  common::Rng rng(13);
  for (auto op : {Add, Sub, Mul, Div}) {
    Tensor a = Tensor::RandomUniform({4, 6}, 1.0f, rng, /*requires_grad=*/true);
    Tensor bvals = Tensor::RandomUniform({4, 6}, 1.0f, rng);
    // Shift b away from zero so Div stays well-conditioned.
    Tensor b = Tensor::FromVector({4, 6}, AddScalar(bvals, 2.0f).ToVector(),
                                  /*requires_grad=*/true);
    Tensor b2vals = DuplicateLeading(b);  // [2, 4, 6], both planes == b
    Tensor b2 = Tensor::FromVector(b2vals.shape(), b2vals.ToVector(),
                                   /*requires_grad=*/true);
    // Fast pass: same-shape layout.
    a.ZeroGrad();
    b.ZeroGrad();
    SumAll(op(a, b)).Backward();
    std::vector<float> ga_fast = a.GradToVector();
    std::vector<float> gb_fast = b.GradToVector();
    // Generic pass: a broadcast over the leading axis of [2, 4, 6] forces
    // the odometer layout on identical numbers. a's grad accumulates over
    // both planes (exactly 2x the fast grad); each plane of b2's grad must
    // equal the fast b grad.
    a.ZeroGrad();
    SumAll(op(a, b2)).Backward();
    std::vector<float> ga_gen = a.GradToVector();
    std::vector<float> gb_gen = b2.GradToVector();
    for (size_t i = 0; i < ga_fast.size(); ++i) {
      EXPECT_NEAR(2.0f * ga_fast[i], ga_gen[i], 2e-5) << "dA element " << i;
      EXPECT_NEAR(gb_fast[i], gb_gen[i], 1e-5) << "dB plane 0 element " << i;
      EXPECT_NEAR(gb_fast[i], gb_gen[ga_fast.size() + i], 1e-5)
          << "dB plane 1 element " << i;
    }
  }
}

TEST(OpsFastPathTest, ScalarPathGradsMatchFullTensor) {
  common::Rng rng(14);
  for (auto op : {Add, Sub, Mul, Div}) {
    Tensor a = Tensor::RandomUniform({3, 5}, 1.0f, rng, /*requires_grad=*/true);
    Tensor scalar = Tensor::FromVector({1}, {1.7f}, /*requires_grad=*/true);
    Tensor full = Tensor::Full({3, 5}, 1.7f, /*requires_grad=*/true);
    a.ZeroGrad();
    scalar.ZeroGrad();
    SumAll(op(a, scalar)).Backward();
    std::vector<float> ga_fast = a.GradToVector();
    float gs_fast = scalar.GradToVector()[0];
    a.ZeroGrad();
    SumAll(op(a, full)).Backward();
    std::vector<float> ga_ref = a.GradToVector();
    std::vector<float> gfull = full.GradToVector();
    double gs_ref = 0.0;
    for (float g : gfull) gs_ref += g;  // scalar grad reduces the full grads
    for (size_t i = 0; i < ga_fast.size(); ++i) {
      EXPECT_NEAR(ga_fast[i], ga_ref[i], 1e-5);
    }
    EXPECT_NEAR(gs_fast, gs_ref, 1e-4);
  }
}

TEST(OpsFastPathTest, ScalarPathGradParityViaHelper) {
  common::Rng rng(21);
  Tensor a = Tensor::RandomUniform({4, 5}, 1.0f, rng, /*requires_grad=*/true);
  Tensor scalar = Tensor::Scalar(2.25f);
  Tensor full = Tensor::Full({4, 5}, 2.25f);
  for (auto op : {Add, Sub, Mul, Div}) {
    testing::CheckGradParity(
        {a}, [&] { return SumAll(op(a, scalar)); },
        [&] { return SumAll(op(a, full)); });
    testing::CheckGradParity(
        {a}, [&] { return SumAll(op(scalar, a)); },
        [&] { return SumAll(op(full, a)); });
  }
}

TEST(OpsFastPathTest, BinaryGradsMatchFiniteDifferences) {
  common::Rng rng(15);
  // Same-shape, scalar, and generic-broadcast layouts against numeric
  // ground truth.
  Tensor a = Tensor::RandomUniform({3, 4}, 1.0f, rng, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector(
      {3, 4}, AddScalar(Tensor::RandomUniform({3, 4}, 0.5f, rng), 2.0f).ToVector(),
      /*requires_grad=*/true);
  Tensor s = Tensor::FromVector({1}, {2.5f}, /*requires_grad=*/true);
  Tensor row = Tensor::FromVector(
      {4}, AddScalar(Tensor::RandomUniform({4}, 0.5f, rng), 2.0f).ToVector(),
      /*requires_grad=*/true);
  testing::CheckGradients({a, b}, [&] { return SumAll(Mul(a, b)); });
  testing::CheckGradients({a, b}, [&] { return SumAll(Div(a, b)); });
  testing::CheckGradients({a, s}, [&] { return SumAll(Div(a, s)); });
  testing::CheckGradients({a, s}, [&] { return SumAll(Mul(s, a)); });
  testing::CheckGradients({a, row}, [&] { return SumAll(Div(a, row)); });
}

// --- Blocked MatMul parity ---------------------------------------------------

/// Reference triple-loop matmul with double accumulation.
std::vector<float> NaiveMatMul(const Tensor& a, const Tensor& b) {
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> out(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at(i * k + kk)) * b.at(kk * n + j);
      }
      out[static_cast<size_t>(i * n + j)] = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(OpsFastPathTest, BlockedMatMulMatchesNaiveValues) {
  common::Rng rng(16);
  // Sizes straddle the 4x4 register tile and the SIMD width, including
  // remainders in every dimension.
  for (auto [m, k, n] : std::vector<std::array<int64_t, 3>>{
           {1, 1, 1}, {3, 5, 2}, {4, 8, 4}, {7, 9, 6}, {16, 33, 12}, {65, 17, 70}}) {
    Tensor a = Tensor::RandomUniform({m, k}, 1.0f, rng);
    Tensor b = Tensor::RandomUniform({k, n}, 1.0f, rng);
    Tensor c = MatMul(a, b);
    std::vector<float> want = NaiveMatMul(a, b);
    for (int64_t i = 0; i < c.numel(); ++i) {
      float scale = std::max(1.0f, std::fabs(want[static_cast<size_t>(i)]));
      EXPECT_NEAR(c.at(i), want[static_cast<size_t>(i)], 1e-5f * scale)
          << m << "x" << k << "x" << n << " element " << i;
    }
  }
}

TEST(OpsFastPathTest, BlockedMatMulGradsMatchFiniteDifferences) {
  common::Rng rng(17);
  Tensor a = Tensor::RandomUniform({5, 7}, 1.0f, rng, /*requires_grad=*/true);
  Tensor b = Tensor::RandomUniform({7, 6}, 1.0f, rng, /*requires_grad=*/true);
  testing::CheckGradients({a, b}, [&] { return SumAll(MatMul(a, b)); });
  // Weighted loss so dOut is non-uniform.
  Tensor w = Tensor::RandomUniform({5, 6}, 1.0f, rng);
  testing::CheckGradients({a, b}, [&] { return SumAll(Mul(MatMul(a, b), w)); });
}

TEST(OpsFastPathTest, BlockedMatMulGradsMatchNaiveReference) {
  common::Rng rng(18);
  int64_t m = 9, k = 13, n = 11;
  Tensor a = Tensor::RandomUniform({m, k}, 1.0f, rng, /*requires_grad=*/true);
  Tensor b = Tensor::RandomUniform({k, n}, 1.0f, rng, /*requires_grad=*/true);
  Tensor w = Tensor::RandomUniform({m, n}, 1.0f, rng);
  a.ZeroGrad();
  b.ZeroGrad();
  SumAll(Mul(MatMul(a, b), w)).Backward();
  // dA = (w) * B^T, dB = A^T * (w) computed with double-accumulator loops.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      double acc = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        acc += static_cast<double>(w.at(i * n + j)) * b.at(kk * n + j);
      }
      float got = a.grad()[i * k + kk];
      float scale = std::max(1.0f, std::fabs(static_cast<float>(acc)));
      EXPECT_NEAR(got, acc, 1e-5f * scale) << "dA(" << i << "," << kk << ")";
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t i = 0; i < m; ++i) {
        acc += static_cast<double>(a.at(i * k + kk)) * w.at(i * n + j);
      }
      float got = b.grad()[kk * n + j];
      float scale = std::max(1.0f, std::fabs(static_cast<float>(acc)));
      EXPECT_NEAR(got, acc, 1e-5f * scale) << "dB(" << kk << "," << j << ")";
    }
  }
}

TEST(OpsFastPathTest, UnaryGradParityAfterTemplatedRewrite) {
  common::Rng rng(19);
  Tensor x = Tensor::RandomUniform({3, 5}, 1.5f, rng, /*requires_grad=*/true);
  testing::CheckGradients({x}, [&] { return SumAll(Sigmoid(x)); });
  testing::CheckGradients({x}, [&] { return SumAll(Tanh(x)); });
  testing::CheckGradients({x}, [&] { return SumAll(Relu(x)); });
  testing::CheckGradients({x}, [&] { return SumAll(Elu(x)); });
  testing::CheckGradients({x}, [&] { return SumAll(MulScalar(x, 3.0f)); });
  testing::CheckGradients({x}, [&] { return SumAll(Exp(x)); });
}

TEST(OpsReshapeTest, ReshapeAliasesStorage) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  // Same storage: no copy, and writes through one view are visible in the
  // other.
  EXPECT_EQ(r.data(), a.data());
  a.data()[0] = 42.0f;
  EXPECT_EQ(r.at(0), 42.0f);
}

TEST(OpsReshapeTest, ReshapeGradStillFlowsToParent) {
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4}, /*requires_grad=*/true);
  Tensor r = Reshape(a, {2, 2});
  SumAll(Mul(r, r)).Backward();  // d/da sum(a^2) = 2a
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(a.grad()[i], 2.0f * a.at(i), 1e-5);
  }
}

TEST(OpsTest, ConcatRowsWithZeroRowFirstPart) {
  // Regression: row size used to be derived as numel()/dim(0), which is 0/0
  // when the first part is empty.
  Tensor empty = Tensor::FromVector({0, 3}, {});
  Tensor rest = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor c = ConcatRows({empty, rest});
  EXPECT_EQ(c.shape(), Shape({2, 3}));
  EXPECT_EQ(c.ToVector(), std::vector<float>({1, 2, 3, 4, 5, 6}));
}

TEST(OpsTest, BackwardThroughSharedSubexpression) {
  // loss = sum((a + a) * a) = sum(2 a^2), d/da = 4a.
  Tensor a = Tensor::FromVector({2}, {1.0f, 3.0f}, /*requires_grad=*/true);
  Tensor loss = SumAll(Mul(Add(a, a), a));
  loss.Backward();
  EXPECT_NEAR(a.grad()[0], 4.0f, 1e-5);
  EXPECT_NEAR(a.grad()[1], 12.0f, 1e-5);
}

TEST(OpsTest, SparseGraphAttentionMatchesHandComputed) {
  // Path 0-1-2 plus isolated node 3; d = 2.
  const std::vector<int32_t> offsets = {0, 1, 3, 4, 4};
  const std::vector<int32_t> cols = {1, 0, 2, 1};
  Tensor hk = Tensor::FromVector({4, 2}, {1, 0, 0, 1, 2, 2, 5, 5});
  Tensor a_src = Tensor::FromVector({2}, {1, 0});
  Tensor a_dst = Tensor::FromVector({2}, {0, 1});
  std::vector<float> out =
      SparseGraphAttention(hk, a_src, a_dst, offsets, cols, 0.2f).ToVector();
  // Rows with one neighbour copy it (alpha = 1).
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  EXPECT_FLOAT_EQ(out[4], 0.0f);
  EXPECT_FLOAT_EQ(out[5], 1.0f);
  // Node 1: logits LeakyReLU(0 + 0) = 0 for j=0 and LeakyReLU(0 + 2) = 2 for j=2.
  const float w0 = 1.0f / (1.0f + std::exp(2.0f));
  const float w2 = 1.0f - w0;
  EXPECT_NEAR(out[2], w0 * 1.0f + w2 * 2.0f, 1e-6f);
  EXPECT_NEAR(out[3], w0 * 0.0f + w2 * 2.0f, 1e-6f);
  // The isolated row outputs zeros.
  EXPECT_EQ(out[6], 0.0f);
  EXPECT_EQ(out[7], 0.0f);
}

TEST(OpsTest, SparseGraphAttentionLeakyNegativeLogits) {
  // Two neighbours with negative logits: the slope scales them before the
  // softmax. Node 0's logits are 0.2 * (-1) and 0.2 * (-3).
  const std::vector<int32_t> offsets = {0, 2, 3, 4};
  const std::vector<int32_t> cols = {1, 2, 0, 0};
  Tensor hk = Tensor::FromVector({3, 1}, {0, -1, -3});
  Tensor a_src = Tensor::FromVector({1}, {0});
  Tensor a_dst = Tensor::FromVector({1}, {1});
  std::vector<float> out =
      SparseGraphAttention(hk, a_src, a_dst, offsets, cols, 0.2f).ToVector();
  const float w1 = 1.0f / (1.0f + std::exp(-0.4f));
  EXPECT_NEAR(out[0], w1 * -1.0f + (1.0f - w1) * -3.0f, 1e-6f);
}

// --- SegmentAttention ---------------------------------------------------------

/// The composed formula SegmentAttention replaces, on one segment:
/// softmax(q k^T * scale + mask) v, where the mask adds -1e9 to every key
/// j > i + (lk - lq) of query i when causal.
Tensor ComposedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                         bool causal, float scale) {
  Tensor scores = MulScalar(MatMul(q, Transpose(k)), scale);
  if (causal) {
    const int64_t lq = q.dim(0), lk = k.dim(0);
    std::vector<float> mask(static_cast<size_t>(lq * lk), 0.0f);
    for (int64_t i = 0; i < lq; ++i) {
      for (int64_t j = i + (lk - lq) + 1; j < lk; ++j) {
        mask[static_cast<size_t>(i * lk + j)] = -1e9f;
      }
    }
    scores = Add(scores, Tensor::FromVector({lq, lk}, std::move(mask)));
  }
  return MatMul(Softmax(scores), v);
}

/// ComposedAttention per segment, sliced out of the pack and concatenated.
Tensor ComposedSegments(const Tensor& q, const Tensor& k, const Tensor& v,
                        const std::vector<int64_t>& q_offsets,
                        const std::vector<int64_t>& k_offsets, bool causal,
                        float scale) {
  std::vector<Tensor> parts;
  for (size_t s = 0; s + 1 < q_offsets.size(); ++s) {
    const int64_t lq = q_offsets[s + 1] - q_offsets[s];
    const int64_t lk = k_offsets[s + 1] - k_offsets[s];
    parts.push_back(ComposedAttention(SliceRows(q, q_offsets[s], lq),
                                      SliceRows(k, k_offsets[s], lk),
                                      SliceRows(v, k_offsets[s], lk), causal,
                                      scale));
  }
  return ConcatRows(parts);
}

std::vector<int64_t> OffsetsOf(const std::vector<int64_t>& lengths) {
  std::vector<int64_t> offsets = {0};
  for (int64_t len : lengths) offsets.push_back(offsets.back() + len);
  return offsets;
}

/// Runs the op and the composed reference on the same random pack and
/// demands bitwise-equal outputs and q/k/v gradients.
void ExpectSegmentAttentionMatchesComposed(const std::vector<int64_t>& q_lengths,
                                           const std::vector<int64_t>& k_lengths,
                                           bool causal, uint64_t seed) {
  const int64_t d = 12, dv = 20;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const std::vector<int64_t> q_offsets = OffsetsOf(q_lengths);
  const std::vector<int64_t> k_offsets = OffsetsOf(k_lengths);
  common::Rng rng(seed);
  Tensor q = Tensor::RandomUniform({q_offsets.back(), d}, 1.5f, rng, true);
  Tensor k = Tensor::RandomUniform({k_offsets.back(), d}, 1.5f, rng, true);
  Tensor v = Tensor::RandomUniform({k_offsets.back(), dv}, 1.0f, rng, true);
  // A random linear read-out, so every output element has its own gradient.
  Tensor readout = Tensor::RandomUniform({q_offsets.back(), dv}, 1.0f, rng);

  Tensor got = SegmentAttention(q, {k}, {v}, q_offsets, k_offsets, causal, scale);
  SumAll(Mul(got, readout)).Backward();
  const std::vector<std::vector<float>> got_grads = {
      q.GradToVector(), k.GradToVector(), v.GradToVector()};
  q.ZeroGrad();
  k.ZeroGrad();
  v.ZeroGrad();
  Tensor want = ComposedSegments(q, k, v, q_offsets, k_offsets, causal, scale);
  SumAll(Mul(want, readout)).Backward();

  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_EQ(got.ToVector(), want.ToVector());
  EXPECT_EQ(got_grads[0], q.GradToVector());
  EXPECT_EQ(got_grads[1], k.GradToVector());
  EXPECT_EQ(got_grads[2], v.GradToVector());
}

// Segment lengths 1, 2, 17 and 16 (the default max_seq_len).
const std::vector<int64_t> kSegmentLengths = {1, 2, 17, 16};

TEST(SegmentAttentionTest, NonCausalMatchesComposedBitwise) {
  ExpectSegmentAttentionMatchesComposed(kSegmentLengths, kSegmentLengths,
                                        /*causal=*/false, 1);
  ExpectSegmentAttentionMatchesComposed({3, 17, 1, 2}, {16, 2, 17, 1},
                                        /*causal=*/false, 2);
}

TEST(SegmentAttentionTest, CausalTriangleMatchesComposedBitwise) {
  ExpectSegmentAttentionMatchesComposed(kSegmentLengths, kSegmentLengths,
                                        /*causal=*/true, 3);
}

TEST(SegmentAttentionTest, CausalFewerQueriesMatchesComposedBitwise) {
  // lq < lk sees keys j <= i + (lk - lq); lq == 1 is the last position.
  ExpectSegmentAttentionMatchesComposed({1, 1, 5, 16}, kSegmentLengths,
                                        /*causal=*/true, 4);
  ExpectSegmentAttentionMatchesComposed({1, 1, 1, 1}, kSegmentLengths,
                                        /*causal=*/true, 5);
}

TEST(SegmentAttentionTest, OneRowKeySegmentsMatchComposedBitwise) {
  // The null history: a single key row per segment.
  ExpectSegmentAttentionMatchesComposed(kSegmentLengths, {1, 1, 1, 1},
                                        /*causal=*/false, 6);
}

TEST(SegmentAttentionTest, GradientsMatchFiniteDifferences) {
  common::Rng rng(8);
  Tensor q = Tensor::RandomUniform({4, 3}, 1.0f, rng, true);
  Tensor k = Tensor::RandomUniform({6, 3}, 1.0f, rng, true);
  Tensor v = Tensor::RandomUniform({6, 2}, 1.0f, rng, true);
  Tensor readout = Tensor::RandomUniform({4, 2}, 1.0f, rng);
  for (bool causal : {false, true}) {
    testing::CheckGradients({q, k, v}, [&] {
      // Segments of (lq, lk) = (1, 2), (3, 3) and (0, 1).
      return SumAll(Mul(SegmentAttention(q, {k}, {v}, {0, 1, 4, 4}, {0, 2, 5, 6},
                                         causal, 0.7f),
                        readout));
    });
  }
}

TEST(SegmentAttentionTest, RejectsBadOffsets) {
  Tensor q = Tensor::Zeros({2, 4});
  Tensor k = Tensor::Zeros({3, 4});
  // A query segment without keys, and a causal segment with lq > lk.
  EXPECT_DEATH(SegmentAttention(q, {k}, {k}, {0, 1, 2}, {0, 3, 3}, false, 1.0f)
                   .ToVector(),
               "no keys");
  EXPECT_DEATH(SegmentAttention(k, {q}, {q}, {0, 3}, {0, 2}, true, 1.0f).ToVector(),
               "causal");
}

TEST(SegmentAttentionTest, SplitKvPartsMatchConcatenatedBitwise) {
  // K/V read in place from several parts (an empty one among them) gives
  // the bits of the same K/V as one tensor: outputs and the gradients of q
  // and of every part's rows.
  const int64_t d = 12, dv = 20;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const std::vector<int64_t> part_rows = {3, 18, 0, 2};
  // Segment key lengths 3 | 1 + 17 | 2: the second part holds two segments.
  const std::vector<int64_t> k_offsets = OffsetsOf({3, 1, 17, 2});
  const std::vector<int64_t> q_offsets = OffsetsOf({2, 1, 5, 2});
  for (bool causal : {false, true}) {
    common::Rng rng(causal ? 21 : 22);
    Tensor q = Tensor::RandomUniform({q_offsets.back(), d}, 1.5f, rng, true);
    std::vector<Tensor> k_parts, v_parts;
    std::vector<float> k_all, v_all;
    for (int64_t rows : part_rows) {
      k_parts.push_back(Tensor::RandomUniform({rows, d}, 1.5f, rng, true));
      v_parts.push_back(Tensor::RandomUniform({rows, dv}, 1.0f, rng, true));
      const std::vector<float> kv = k_parts.back().ToVector();
      const std::vector<float> vv = v_parts.back().ToVector();
      k_all.insert(k_all.end(), kv.begin(), kv.end());
      v_all.insert(v_all.end(), vv.begin(), vv.end());
    }
    Tensor k = Tensor::FromVector({k_offsets.back(), d}, k_all, true);
    Tensor v = Tensor::FromVector({k_offsets.back(), dv}, v_all, true);
    Tensor readout = Tensor::RandomUniform({q_offsets.back(), dv}, 1.0f, rng);

    Tensor got =
        SegmentAttention(q, k_parts, v_parts, q_offsets, k_offsets, causal, scale);
    SumAll(Mul(got, readout)).Backward();
    const std::vector<float> got_gq = q.GradToVector();
    q.ZeroGrad();
    Tensor want = SegmentAttention(q, {k}, {v}, q_offsets, k_offsets, causal, scale);
    SumAll(Mul(want, readout)).Backward();

    EXPECT_EQ(got.ToVector(), want.ToVector());
    EXPECT_EQ(got_gq, q.GradToVector());
    std::vector<float> got_gk, got_gv;
    for (size_t p = 0; p < part_rows.size(); ++p) {
      const std::vector<float> gk = k_parts[p].GradToVector();
      const std::vector<float> gv = v_parts[p].GradToVector();
      got_gk.insert(got_gk.end(), gk.begin(), gk.end());
      got_gv.insert(got_gv.end(), gv.begin(), gv.end());
    }
    EXPECT_EQ(got_gk, k.GradToVector());
    EXPECT_EQ(got_gv, v.GradToVector());
  }
}

TEST(SegmentAttentionTest, RejectsSegmentStraddlingParts) {
  Tensor q = Tensor::Zeros({2, 4});
  Tensor part = Tensor::Zeros({2, 4});
  // Segment 1 takes rows 1..3: the end of the first part and the second.
  EXPECT_DEATH(SegmentAttention(q, {part, part}, {part, part}, {0, 1, 2},
                                {0, 1, 4}, false, 1.0f)
                   .ToVector(),
               "straddles");
}

// --- Affine -------------------------------------------------------------------

/// Runs Affine and the Add(MatMul(x, Transpose(w)), b) chain it replaces on
/// the same inputs and demands bitwise-equal outputs and x, w and b
/// gradients.
void ExpectAffineMatchesComposed(int64_t rows, int64_t in, int64_t out,
                                 bool with_bias, uint64_t seed) {
  common::Rng rng(seed);
  Tensor x = Tensor::RandomUniform({rows, in}, 1.5f, rng, true);
  Tensor w = Tensor::RandomUniform({out, in}, 1.0f, rng, true);
  Tensor b = with_bias ? Tensor::RandomUniform({out}, 1.0f, rng, true) : Tensor();
  Tensor readout = Tensor::RandomUniform({rows, out}, 1.0f, rng);
  std::vector<Tensor> inputs = {x, w};
  if (with_bias) inputs.push_back(b);

  Tensor got = Affine(x, w, b);
  SumAll(Mul(got, readout)).Backward();
  std::vector<std::vector<float>> got_grads;
  for (Tensor& t : inputs) {
    got_grads.push_back(t.GradToVector());
    t.ZeroGrad();
  }
  Tensor want = MatMul(x, Transpose(w));
  if (with_bias) want = Add(want, b);
  SumAll(Mul(want, readout)).Backward();

  const std::string where = "rows=" + std::to_string(rows) + " in=" +
                            std::to_string(in) + " out=" + std::to_string(out) +
                            " bias=" + std::to_string(with_bias);
  EXPECT_EQ(got.shape(), want.shape()) << where;
  EXPECT_EQ(got.ToVector(), want.ToVector()) << where;
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(got_grads[i], inputs[i].GradToVector()) << where << " input " << i;
  }
}

TEST(AffineTest, MatchesComposedChainBitwise) {
  uint64_t seed = 30;
  for (int64_t rows : {1, 4, 17}) {
    for (bool with_bias : {false, true}) {
      // The model's shape, and one with tails in every GEMM dimension.
      ExpectAffineMatchesComposed(rows, 32, 32, with_bias, ++seed);
      ExpectAffineMatchesComposed(rows, 13, 7, with_bias, ++seed);
    }
  }
}

TEST(AffineTest, LinearOnRankOneInputMatchesComposedChainBitwise) {
  common::Rng rng(40);
  Linear linear(13, 7, rng);
  Tensor x = Tensor::RandomUniform({13}, 1.5f, rng, true);
  Tensor readout = Tensor::RandomUniform({7}, 1.0f, rng);
  std::vector<Tensor> inputs = {x, linear.weight(), linear.bias()};

  Tensor got = linear.Forward(x);
  SumAll(Mul(got, readout)).Backward();
  std::vector<std::vector<float>> got_grads;
  for (Tensor& t : inputs) {
    got_grads.push_back(t.GradToVector());
    t.ZeroGrad();
  }
  Tensor want = Reshape(
      Add(MatMul(Reshape(x, {1, 13}), Transpose(linear.weight())), linear.bias()),
      {7});
  SumAll(Mul(want, readout)).Backward();

  EXPECT_EQ(got.shape(), Shape({7}));
  EXPECT_EQ(got.ToVector(), want.ToVector());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(got_grads[i], inputs[i].GradToVector()) << "input " << i;
  }
}

}  // namespace
}  // namespace tspn::nn
