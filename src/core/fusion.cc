#include "core/fusion.h"

#include "common/check.h"
#include "nn/ops.h"

namespace tspn::core {

AttentionBlock::AttentionBlock(int64_t dm, common::Rng& rng) {
  self_attention_ = std::make_unique<nn::Attention>(dm, rng);
  RegisterChild(self_attention_.get());
  norm1_ = std::make_unique<nn::LayerNormLayer>(dm);
  RegisterChild(norm1_.get());
  cross_attention_ = std::make_unique<nn::Attention>(dm, rng);
  RegisterChild(cross_attention_.get());
  norm2_ = std::make_unique<nn::LayerNormLayer>(dm);
  RegisterChild(norm2_.get());
  feed_forward_ = std::make_unique<nn::Linear>(dm, dm, rng);
  RegisterChild(feed_forward_.get());
  norm3_ = std::make_unique<nn::LayerNormLayer>(dm);
  RegisterChild(norm3_.get());
}

nn::Tensor AttentionBlock::Forward(const nn::Tensor& sequence,
                                   const std::vector<int64_t>& offsets,
                                   const nn::Tensor& history,
                                   const std::vector<int64_t>& hist_offsets,
                                   common::Rng* rng, float dropout) const {
  TSPN_CHECK(!training() || rng != nullptr) << "training needs a dropout rng";
  TSPN_CHECK_EQ(sequence.rank(), 2);
  TSPN_CHECK_EQ(history.rank(), 2);
  TSPN_CHECK_EQ(offsets.size(), hist_offsets.size());
  TSPN_CHECK_GE(offsets.size(), 2u);
  const size_t batch = offsets.size() - 1;
  // 1. Masked sequential self-attention (inverted-triangle mask): project
  // the whole pack with one GEMM per projection, then score/softmax each
  // segment against itself only.
  nn::Tensor q = self_attention_->ProjectQuery(sequence);
  nn::Tensor k = self_attention_->ProjectKey(sequence);
  nn::Tensor v = self_attention_->ProjectValue(sequence);
  std::vector<nn::Tensor> parts;
  parts.reserve(batch);
  for (size_t b = 0; b < batch; ++b) {
    const int64_t start = offsets[b];
    const int64_t len = offsets[b + 1] - start;
    parts.push_back(self_attention_->ForwardProjected(
        nn::SliceRows(q, start, len), nn::SliceRows(k, start, len),
        nn::SliceRows(v, start, len), /*causal=*/true));
  }
  nn::Tensor z_m = nn::ConcatRows(parts);
  if (training()) z_m = nn::Dropout(z_m, dropout, *rng, /*training=*/true);
  // 2. Add & normalize (row-wise, safe over the pack).
  nn::Tensor h1 = norm1_->Forward(nn::Add(sequence, z_m));
  // 3. Cross attention over each segment's own historical knowledge.
  nn::Tensor cq = cross_attention_->ProjectQuery(h1);
  nn::Tensor ck = cross_attention_->ProjectKey(history);
  nn::Tensor cv = cross_attention_->ProjectValue(history);
  parts.clear();
  for (size_t b = 0; b < batch; ++b) {
    const int64_t start = offsets[b];
    const int64_t len = offsets[b + 1] - start;
    const int64_t h_start = hist_offsets[b];
    const int64_t h_len = hist_offsets[b + 1] - h_start;
    parts.push_back(cross_attention_->ForwardProjected(
        nn::SliceRows(cq, start, len), nn::SliceRows(ck, h_start, h_len),
        nn::SliceRows(cv, h_start, h_len), /*causal=*/false));
  }
  nn::Tensor z_h = nn::ConcatRows(parts);
  if (training()) z_h = nn::Dropout(z_h, dropout, *rng, /*training=*/true);
  nn::Tensor h2 = norm2_->Forward(nn::Add(h1, z_h));
  // 4. Feed forward (Z_f = ReLU(W_f Z_h + b_f)) over the pack.
  nn::Tensor z_f = nn::Relu(feed_forward_->Forward(h2));
  return norm3_->Forward(nn::Add(h2, z_f));
}

FusionModule::FusionModule(const TspnRaConfig& config, common::Rng& rng)
    : config_(config) {
  for (int32_t i = 0; i < config_.num_fusion_layers; ++i) {
    blocks_.push_back(std::make_unique<AttentionBlock>(config_.dm, rng));
    RegisterChild(blocks_.back().get());
  }
}

nn::Tensor FusionModule::Forward(const nn::Tensor& sequence,
                                 const std::vector<int64_t>& offsets,
                                 const nn::Tensor& history,
                                 const std::vector<int64_t>& hist_offsets,
                                 common::Rng* rng) const {
  nn::Tensor h = sequence;
  for (const auto& block : blocks_) {
    h = block->Forward(h, offsets, history, hist_offsets, rng, config_.dropout);
  }
  std::vector<nn::Tensor> last_rows;
  last_rows.reserve(offsets.size() - 1);
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    last_rows.push_back(nn::Row(h, offsets[b + 1] - 1));
  }
  return nn::StackRows(last_rows);
}

}  // namespace tspn::core
