#include "nn/gru.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "tests/nn/grad_check.h"

namespace tspn::nn {
namespace {

TEST(GruTest, StepShapes) {
  common::Rng rng(1);
  GruCell cell(3, 5, rng);
  Tensor x = Tensor::RandomUniform({3}, 1.0f, rng);
  Tensor h = cell.InitialState();
  Tensor h1 = cell.Step(x, h);
  EXPECT_EQ(h1.shape(), Shape({5}));
}

TEST(GruTest, UnrollShapes) {
  common::Rng rng(2);
  GruCell cell(3, 4, rng);
  Tensor seq = Tensor::RandomUniform({6, 3}, 1.0f, rng);
  Tensor states = cell.Unroll(seq);
  EXPECT_EQ(states.shape(), Shape({6, 4}));
}

TEST(GruTest, HiddenStateBounded) {
  // GRU state is a convex combination of tanh outputs; must stay in (-1, 1).
  common::Rng rng(3);
  GruCell cell(2, 4, rng);
  Tensor seq = Tensor::RandomUniform({20, 2}, 5.0f, rng);
  Tensor states = cell.Unroll(seq);
  for (int64_t i = 0; i < states.numel(); ++i) {
    EXPECT_GT(states.at(i), -1.0f);
    EXPECT_LT(states.at(i), 1.0f);
  }
}

TEST(GruTest, GradCheckThroughTwoSteps) {
  common::Rng rng(4);
  GruCell cell(2, 3, rng);
  Tensor seq = Tensor::RandomUniform({2, 2}, 1.0f, rng, true);
  std::vector<Tensor> inputs = cell.Parameters();
  inputs.push_back(seq);
  testing::CheckGradients(inputs, [&] {
    Tensor states = cell.Unroll(seq);
    return SumAll(Mul(states, states));
  });
}

TEST(GruTest, CanLearnToRememberFirstToken) {
  // Task: output of last state should classify the first token of a length-4
  // sequence. Tests that gradients flow through time.
  common::Rng rng(5);
  GruCell cell(2, 8, rng);
  Linear head(8, 2, rng);
  std::vector<Tensor> params = cell.Parameters();
  for (Tensor& p : head.Parameters()) params.push_back(p);
  Adam optimizer(params, {.lr = 5e-2f});

  auto make_seq = [&](int label) {
    std::vector<float> v(4 * 2, 0.0f);
    v[static_cast<size_t>(label)] = 1.0f;  // one-hot first token
    return Tensor::FromVector({4, 2}, v);
  };

  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 60; ++step) {
    optimizer.ZeroGrad();
    Tensor loss = Tensor::Scalar(0.0f);
    for (int label = 0; label < 2; ++label) {
      Tensor states = cell.Unroll(make_seq(label));
      Tensor logits = head.Forward(Row(states, 3));
      loss = Add(loss, CrossEntropyWithLogits(logits, label));
    }
    loss.Backward();
    optimizer.Step();
    if (step == 0) first_loss = loss.item();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, first_loss * 0.5f);
}

}  // namespace
}  // namespace tspn::nn
