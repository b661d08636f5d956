#include "core/fusion.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/ops.h"

namespace tspn::core {
namespace {

TspnRaConfig SmallConfig() {
  TspnRaConfig config;
  config.dm = 16;
  config.num_fusion_layers = 2;
  config.dropout = 0.0f;
  return config;
}

/// Offsets of a pack of one segment with `rows` rows.
std::vector<int64_t> One(int64_t rows) { return {0, rows}; }

TEST(AttentionBlockTest, OutputShape) {
  common::Rng rng(1);
  AttentionBlock block(16, rng);
  block.SetTraining(false);
  nn::Tensor seq = nn::Tensor::RandomUniform({5, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({3, 16}, 1.0f, rng);
  nn::Tensor out = block.Forward(seq, One(5), {block.ProjectHistory(hist)}, One(3),
                                 nullptr, 0.0f);
  EXPECT_EQ(out.shape(), nn::Shape({5, 16}));
}

TEST(AttentionBlockTest, CausalMaskHoldsThroughBlock) {
  common::Rng rng(2);
  AttentionBlock block(16, rng);
  block.SetTraining(false);
  nn::Tensor hist = nn::Tensor::RandomUniform({2, 16}, 1.0f, rng);
  nn::Tensor seq1 = nn::Tensor::RandomUniform({4, 16}, 1.0f, rng);
  std::vector<float> v = seq1.ToVector();
  for (int i = 0; i < 16; ++i) v[3 * 16 + i] += 5.0f;  // perturb last element
  nn::Tensor seq2 = nn::Tensor::FromVector({4, 16}, v);
  nn::Tensor out1 = block.Forward(seq1, One(4), {block.ProjectHistory(hist)},
                                  One(2), nullptr, 0.0f);
  nn::Tensor out2 = block.Forward(seq2, One(4), {block.ProjectHistory(hist)},
                                  One(2), nullptr, 0.0f);
  // Rows 0..2 must be unaffected by the change at position 3.
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 16; ++c) {
      EXPECT_NEAR(out1.at(r * 16 + c), out2.at(r * 16 + c), 1e-4);
    }
  }
}

TEST(AttentionBlockTest, HistoryInfluencesOutput) {
  common::Rng rng(3);
  AttentionBlock block(16, rng);
  block.SetTraining(false);
  nn::Tensor seq = nn::Tensor::RandomUniform({4, 16}, 1.0f, rng);
  nn::Tensor hist1 = nn::Tensor::RandomUniform({3, 16}, 1.0f, rng);
  nn::Tensor hist2 = nn::Tensor::RandomUniform({3, 16}, 1.0f, rng);
  nn::Tensor out1 = block.Forward(seq, One(4), {block.ProjectHistory(hist1)},
                                  One(3), nullptr, 0.0f);
  nn::Tensor out2 = block.Forward(seq, One(4), {block.ProjectHistory(hist2)},
                                  One(3), nullptr, 0.0f);
  double diff = 0.0;
  for (int64_t i = 0; i < out1.numel(); ++i) diff += std::abs(out1.at(i) - out2.at(i));
  EXPECT_GT(diff, 1e-3);
}

TEST(FusionModuleTest, ReturnsLastPositionVector) {
  common::Rng rng(4);
  TspnRaConfig config = SmallConfig();
  FusionModule fusion(config, rng);
  fusion.SetTraining(false);
  nn::Tensor seq = nn::Tensor::RandomUniform({6, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({2, 16}, 1.0f, rng);
  nn::Tensor h_out = fusion.Forward(seq, One(6),
                                    {fusion.ProjectHistory(hist)}, One(2), nullptr);
  EXPECT_EQ(h_out.shape(), nn::Shape({1, 16}));
}

TEST(FusionModuleTest, SingleElementSequenceWorks) {
  common::Rng rng(5);
  TspnRaConfig config = SmallConfig();
  FusionModule fusion(config, rng);
  fusion.SetTraining(false);
  nn::Tensor seq = nn::Tensor::RandomUniform({1, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({1, 16}, 1.0f, rng);
  nn::Tensor h_out = fusion.Forward(seq, One(1),
                                    {fusion.ProjectHistory(hist)}, One(1), nullptr);
  EXPECT_EQ(h_out.shape(), nn::Shape({1, 16}));
}

TEST(FusionModuleTest, GradientsReachAllBlocks) {
  common::Rng rng(6);
  TspnRaConfig config = SmallConfig();
  FusionModule fusion(config, rng);
  fusion.SetTraining(true);
  nn::Tensor seq = nn::Tensor::RandomUniform({4, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({2, 16}, 1.0f, rng);
  nn::Tensor h_out = fusion.Forward(seq, One(4),
                                    {fusion.ProjectHistory(hist)}, One(2), &rng);
  nn::SumAll(nn::Mul(h_out, h_out)).Backward();
  int64_t with_grad = 0, total = 0;
  for (const nn::Tensor& p : fusion.Parameters()) {
    auto g = p.GradToVector();
    double sum = 0.0;
    for (float v : g) sum += std::abs(v);
    with_grad += (sum > 0.0);
    ++total;
  }
  // Nearly all parameters should receive gradient (bias-free corner cases
  // aside).
  EXPECT_GT(with_grad, total * 3 / 4);
}

TEST(FusionModuleTest, PackOfThreeMatchesThreeSingleCalls) {
  // Batch composition: each row of a 3-segment pack equals the 1-segment
  // call on that segment, bitwise, in training mode (dropout 0) — outputs
  // and the gradients reaching the inputs alike. Parameter gradients sum
  // over every row of the pack inside one GEMM reduction, so they agree
  // with the per-call sum only up to float reassociation.
  const TspnRaConfig config = SmallConfig();
  common::Rng init_a(7), init_b(7);
  FusionModule packed_fusion(config, init_a);
  FusionModule single_fusion(config, init_b);
  packed_fusion.SetTraining(true);
  single_fusion.SetTraining(true);

  common::Rng data_rng(8);
  const std::vector<int64_t> lengths = {4, 1, 6};
  const std::vector<int64_t> hist_lengths = {2, 3, 1};
  std::vector<nn::Tensor> seqs, hists;
  std::vector<int64_t> offsets = {0}, hist_offsets = {0};
  for (size_t b = 0; b < lengths.size(); ++b) {
    seqs.push_back(nn::Tensor::RandomUniform({lengths[b], 16}, 1.0f, data_rng,
                                             /*requires_grad=*/true));
    hists.push_back(nn::Tensor::RandomUniform({hist_lengths[b], 16}, 1.0f,
                                              data_rng, /*requires_grad=*/true));
    offsets.push_back(offsets.back() + lengths[b]);
    hist_offsets.push_back(hist_offsets.back() + hist_lengths[b]);
  }

  common::Rng dropout_rng(9);
  nn::Tensor packed =
      packed_fusion.Forward(nn::ConcatRows(seqs), offsets,
                            {packed_fusion.ProjectHistory(nn::ConcatRows(hists))},
                            hist_offsets, &dropout_rng);
  ASSERT_EQ(packed.shape(), nn::Shape({3, 16}));
  nn::SumAll(nn::Mul(packed, packed)).Backward();
  std::vector<std::vector<float>> packed_seq_grads, packed_hist_grads;
  for (size_t b = 0; b < seqs.size(); ++b) {
    packed_seq_grads.push_back(seqs[b].GradToVector());
    packed_hist_grads.push_back(hists[b].GradToVector());
    seqs[b].ZeroGrad();
    hists[b].ZeroGrad();
  }

  nn::Tensor loss = nn::Tensor::Scalar(0.0f);
  for (size_t b = 0; b < seqs.size(); ++b) {
    nn::Tensor single =
        single_fusion.Forward(seqs[b], One(lengths[b]),
                              {single_fusion.ProjectHistory(hists[b])},
                              One(hist_lengths[b]), &dropout_rng);
    ASSERT_EQ(single.shape(), nn::Shape({1, 16}));
    for (int64_t j = 0; j < 16; ++j) {
      EXPECT_EQ(packed.at(static_cast<int64_t>(b) * 16 + j), single.at(j))
          << "segment " << b << " dim " << j;
    }
    loss = nn::Add(loss, nn::SumAll(nn::Mul(single, single)));
  }
  loss.Backward();
  for (size_t b = 0; b < seqs.size(); ++b) {
    EXPECT_EQ(seqs[b].GradToVector(), packed_seq_grads[b]) << "segment " << b;
    EXPECT_EQ(hists[b].GradToVector(), packed_hist_grads[b]) << "segment " << b;
  }

  const std::vector<nn::Tensor> packed_params = packed_fusion.Parameters();
  const std::vector<nn::Tensor> single_params = single_fusion.Parameters();
  ASSERT_EQ(packed_params.size(), single_params.size());
  for (size_t p = 0; p < packed_params.size(); ++p) {
    const std::vector<float> a = packed_params[p].GradToVector();
    const std::vector<float> b = single_params[p].GradToVector();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-6f + 1e-4f * std::abs(b[i]))
          << "parameter " << p << " element " << i;
    }
  }
}

TEST(FusionModuleTest, EvalFinalBlockMatchesAllRows) {
  // In eval mode the final block computes only each segment's last row; in
  // training mode (dropout 0) it computes every row. h_out is the same bits.
  const TspnRaConfig config = SmallConfig();
  common::Rng init(10);
  FusionModule fusion(config, init);

  common::Rng data_rng(11);
  const std::vector<int64_t> lengths = {5, 1, 16, 2};
  const std::vector<int64_t> hist_lengths = {3, 1, 2, 17};
  std::vector<nn::Tensor> seqs, hists;
  std::vector<int64_t> offsets = {0}, hist_offsets = {0};
  for (size_t b = 0; b < lengths.size(); ++b) {
    seqs.push_back(nn::Tensor::RandomUniform({lengths[b], 16}, 1.0f, data_rng));
    hists.push_back(nn::Tensor::RandomUniform({hist_lengths[b], 16}, 1.0f, data_rng));
    offsets.push_back(offsets.back() + lengths[b]);
    hist_offsets.push_back(hist_offsets.back() + hist_lengths[b]);
  }
  const nn::Tensor seq = nn::ConcatRows(seqs);
  const nn::Tensor hist = nn::ConcatRows(hists);

  fusion.SetTraining(true);
  common::Rng dropout_rng(12);
  nn::Tensor all_rows = fusion.Forward(seq, offsets, {fusion.ProjectHistory(hist)},
                                       hist_offsets, &dropout_rng);
  fusion.SetTraining(false);
  nn::Tensor last_rows = fusion.Forward(seq, offsets, {fusion.ProjectHistory(hist)},
                                        hist_offsets, nullptr);
  ASSERT_EQ(all_rows.shape(), nn::Shape({4, 16}));
  ASSERT_EQ(last_rows.shape(), nn::Shape({4, 16}));
  EXPECT_EQ(last_rows.ToVector(), all_rows.ToVector());
}

}  // namespace
}  // namespace tspn::core
