// Property-style finite-difference gradient verification for every
// differentiable op in tspn::nn. These tests are the foundation the whole
// model stack rests on.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/conv.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "tests/nn/grad_check.h"

namespace tspn::nn {
namespace {

using testing::CheckGradients;

Tensor RandomInput(const Shape& shape, uint64_t seed, float scale = 1.0f) {
  common::Rng rng(seed);
  return Tensor::RandomUniform(shape, scale, rng, /*requires_grad=*/true);
}

TEST(GradCheckTest, Add) {
  Tensor a = RandomInput({2, 3}, 1);
  Tensor b = RandomInput({2, 3}, 2);
  CheckGradients({a, b}, [&] { return SumAll(Mul(Add(a, b), Add(a, b))); });
}

TEST(GradCheckTest, AddBroadcast) {
  Tensor a = RandomInput({2, 3}, 3);
  Tensor b = RandomInput({3}, 4);
  CheckGradients({a, b}, [&] { return SumAll(Mul(Add(a, b), Add(a, b))); });
}

TEST(GradCheckTest, OuterSumBroadcast) {
  Tensor a = RandomInput({3, 1}, 5);
  Tensor b = RandomInput({1, 4}, 6);
  CheckGradients({a, b}, [&] { return SumAll(Mul(Add(a, b), Add(a, b))); });
}

TEST(GradCheckTest, SubMul) {
  Tensor a = RandomInput({4}, 7);
  Tensor b = RandomInput({4}, 8);
  CheckGradients({a, b}, [&] { return SumAll(Mul(Sub(a, b), a)); });
}

TEST(GradCheckTest, Div) {
  common::Rng rng(9);
  // Keep denominators away from zero.
  Tensor a = Tensor::RandomUniform({4}, 1.0f, rng, true);
  std::vector<float> bv(4);
  for (auto& x : bv) x = 1.5f + static_cast<float>(rng.Uniform());
  Tensor b = Tensor::FromVector({4}, bv, true);
  CheckGradients({a, b}, [&] { return SumAll(Div(a, b)); });
}

TEST(GradCheckTest, ExpLogSqrt) {
  common::Rng rng(10);
  std::vector<float> av(5);
  for (auto& x : av) x = 0.5f + static_cast<float>(rng.Uniform());
  Tensor a = Tensor::FromVector({5}, av, true);
  CheckGradients({a}, [&] { return SumAll(Log(a)); });
  CheckGradients({a}, [&] { return SumAll(Exp(a)); });
  CheckGradients({a}, [&] { return SumAll(Sqrt(a)); });
}

TEST(GradCheckTest, Activations) {
  // Avoid kink at 0 by sampling away from it.
  Tensor a = Tensor::FromVector({6}, {-1.5f, -0.7f, -0.2f, 0.3f, 0.9f, 1.4f}, true);
  CheckGradients({a}, [&] { return SumAll(Mul(Relu(a), a)); });
  CheckGradients({a}, [&] { return SumAll(Mul(LeakyRelu(a, 0.2f), a)); });
  CheckGradients({a}, [&] { return SumAll(Mul(Elu(a), a)); });
  CheckGradients({a}, [&] { return SumAll(Mul(Sigmoid(a), a)); });
  CheckGradients({a}, [&] { return SumAll(Mul(Tanh(a), a)); });
}

TEST(GradCheckTest, ReshapeTranspose) {
  Tensor a = RandomInput({2, 3}, 11);
  CheckGradients({a}, [&] {
    Tensor t = Transpose(Reshape(a, {3, 2}));
    return SumAll(Mul(t, t));
  });
}

TEST(GradCheckTest, ConcatRowsAndLast) {
  Tensor a = RandomInput({1, 3}, 12);
  Tensor b = RandomInput({2, 3}, 13);
  CheckGradients({a, b}, [&] {
    Tensor c = ConcatRows({a, b});
    return SumAll(Mul(c, c));
  });
  Tensor x = RandomInput({2, 2}, 14);
  Tensor y = RandomInput({2, 3}, 15);
  CheckGradients({x, y}, [&] {
    Tensor c = ConcatLast({x, y});
    return SumAll(Mul(c, c));
  });
}

TEST(GradCheckTest, StackRowsSliceRow) {
  Tensor a = RandomInput({3}, 16);
  Tensor b = RandomInput({3}, 17);
  CheckGradients({a, b}, [&] {
    Tensor s = StackRows({a, b, a});
    Tensor sl = SliceRows(s, 1, 2);
    return SumAll(Mul(sl, sl));
  });
}

TEST(GradCheckTest, MatMul) {
  Tensor a = RandomInput({3, 4}, 18);
  Tensor b = RandomInput({4, 2}, 19);
  CheckGradients({a, b}, [&] {
    Tensor c = MatMul(a, b);
    return SumAll(Mul(c, c));
  });
}

TEST(GradCheckTest, Affine) {
  Tensor x = RandomInput({3, 4}, 40);
  Tensor w = RandomInput({5, 4}, 41);
  Tensor b = RandomInput({5}, 42);
  CheckGradients({x, w, b}, [&] {
    Tensor y = Affine(x, w, b);
    return SumAll(Mul(y, y));
  });
  CheckGradients({x, w}, [&] {
    Tensor y = Affine(x, w, Tensor());
    return SumAll(Mul(y, y));
  });
}

TEST(GradCheckTest, MatVecDot) {
  Tensor a = RandomInput({3, 4}, 20);
  Tensor v = RandomInput({4}, 21);
  CheckGradients({a, v}, [&] {
    Tensor c = MatVec(a, v);
    return SumAll(Mul(c, c));
  });
  Tensor u = RandomInput({4}, 22);
  CheckGradients({v, u}, [&] { return Dot(v, u); });
}

TEST(GradCheckTest, SoftmaxLogSoftmax) {
  Tensor a = RandomInput({2, 4}, 23, 2.0f);
  Tensor pick = Tensor::FromVector({2, 4}, {1, 0, 2, 0, 0, 1, 0, 3});
  CheckGradients({a}, [&] { return SumAll(Mul(Softmax(a), pick)); });
  CheckGradients({a}, [&] { return SumAll(Mul(LogSoftmax(a), pick)); });
}

TEST(GradCheckTest, SparseGraphAttention) {
  // Symmetric CSR on 5 nodes: node 0 has 3 neighbours, nodes 1-3 have one
  // each, node 4 none.
  const std::vector<int32_t> offsets = {0, 3, 4, 5, 6, 6};
  const std::vector<int32_t> cols = {1, 2, 3, 0, 0, 0};
  Tensor hk = RandomInput({5, 4}, 40);
  Tensor a_src = RandomInput({4}, 41);
  Tensor a_dst = RandomInput({4}, 42);
  Tensor probe = RandomInput({5, 4}, 43);
  CheckGradients({hk, a_src, a_dst}, [&] {
    return SumAll(Mul(SparseGraphAttention(hk, a_src, a_dst, offsets, cols), probe));
  });
}

TEST(GradCheckTest, L2Normalize) {
  Tensor a = RandomInput({2, 3}, 24);
  Tensor pick = Tensor::FromVector({2, 3}, {1, -1, 2, 0.5f, 1, -2});
  CheckGradients({a}, [&] { return SumAll(Mul(L2Normalize(a), pick)); });
}

TEST(GradCheckTest, LayerNorm) {
  Tensor x = RandomInput({2, 4}, 25);
  Tensor gamma = RandomInput({4}, 26);
  Tensor beta = RandomInput({4}, 27);
  Tensor pick = Tensor::FromVector({2, 4}, {1, 2, -1, 0.5f, -2, 1, 0.3f, 1});
  CheckGradients({x, gamma, beta},
                 [&] { return SumAll(Mul(LayerNorm(x, gamma, beta), pick)); });
}

TEST(GradCheckTest, SumMeanReductions) {
  Tensor a = RandomInput({3, 2}, 28);
  CheckGradients({a}, [&] { return MeanAll(Mul(a, a)); });
  CheckGradients({a}, [&] { return SumAll(Mul(SumRows(a), SumRows(a))); });
  CheckGradients({a}, [&] { return SumAll(Mul(MeanRows(a), MeanRows(a))); });
}

TEST(GradCheckTest, EmbeddingGather) {
  Tensor w = RandomInput({4, 3}, 29);
  std::vector<int64_t> idx = {0, 2, 2, 3};
  CheckGradients({w}, [&] {
    Tensor e = EmbeddingGather(w, idx);
    return SumAll(Mul(e, e));
  });
}

TEST(GradCheckTest, CrossEntropy) {
  Tensor logits = RandomInput({5}, 30, 2.0f);
  CheckGradients({logits}, [&] { return CrossEntropyWithLogits(logits, 3); });
}

TEST(GradCheckTest, ArcFace) {
  // Cosines strictly inside (-1, 1) so the sqrt derivative is stable.
  Tensor cosines = Tensor::FromVector({4}, {0.6f, -0.3f, 0.1f, 0.4f}, true);
  CheckGradients({cosines}, [&] {
    Tensor logits = ArcFaceLogits(cosines, 0, 8.0f, 0.25f);
    return CrossEntropyWithLogits(logits, 0);
  });
}

TEST(GradCheckTest, Conv2dAllInputs) {
  Tensor x = RandomInput({1, 2, 5, 5}, 31);
  Tensor w = RandomInput({3, 2, 3, 3}, 32);
  Tensor b = RandomInput({3}, 33);
  CheckGradients({x, w, b}, [&] {
    Tensor y = Conv2d(x, w, b, /*stride=*/2, /*padding=*/1);
    return SumAll(Mul(y, y));
  });
}

TEST(GradCheckTest, Conv2dNoPadding) {
  Tensor x = RandomInput({2, 1, 4, 4}, 34);
  Tensor w = RandomInput({2, 1, 2, 2}, 35);
  CheckGradients({x, w}, [&] {
    Tensor y = Conv2d(x, w, Tensor(), /*stride=*/1, /*padding=*/0);
    return SumAll(Mul(y, y));
  });
}

TEST(GradCheckTest, MaxPool) {
  // Distinct values so argmax is stable under the FD perturbation.
  std::vector<float> vals(16);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<float>(i) * 0.37f;
  Tensor x = Tensor::FromVector({1, 1, 4, 4}, vals, true);
  CheckGradients({x}, [&] {
    Tensor y = MaxPool2x2(x);
    return SumAll(Mul(y, y));
  });
}

TEST(GradCheckTest, DeepCompositeExpression) {
  // A miniature end-to-end graph mixing many op kinds.
  Tensor x = RandomInput({3, 4}, 36);
  Tensor w1 = RandomInput({4, 4}, 37);
  Tensor w2 = RandomInput({4, 2}, 38);
  CheckGradients({x, w1, w2}, [&] {
    Tensor h = Tanh(MatMul(x, w1));
    Tensor n = L2Normalize(h);
    Tensor y = MatMul(n, w2);
    Tensor p = LogSoftmax(y);
    return MeanAll(Mul(p, p));
  });
}

}  // namespace
}  // namespace tspn::nn
