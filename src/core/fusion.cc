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

HistoryKv AttentionBlock::ProjectHistory(const nn::Tensor& history) const {
  return {cross_attention_->ProjectKey(history),
          cross_attention_->ProjectValue(history)};
}

nn::Tensor AttentionBlock::Forward(const nn::Tensor& sequence,
                                   const std::vector<int64_t>& offsets,
                                   const std::vector<HistoryKv>& history,
                                   const std::vector<int64_t>& hist_offsets,
                                   common::Rng* rng, float dropout,
                                   bool last_rows_only) const {
  TSPN_CHECK(!training() || rng != nullptr) << "training needs a dropout rng";
  TSPN_CHECK_EQ(sequence.rank(), 2);
  TSPN_CHECK_EQ(offsets.size(), hist_offsets.size());
  TSPN_CHECK_GE(offsets.size(), 2u);
  const size_t batch = offsets.size() - 1;
  // The rows that query: the whole pack, or each segment's last position.
  nn::Tensor rows = sequence;
  std::vector<int64_t> row_offsets = offsets;
  if (last_rows_only) {
    std::vector<int64_t> last(batch);
    for (size_t b = 0; b < batch; ++b) {
      last[b] = offsets[b + 1] - 1;
      row_offsets[b + 1] = static_cast<int64_t>(b + 1);
    }
    rows = nn::EmbeddingGather(sequence, last);
  }
  // 1. Masked sequential self-attention (inverted-triangle mask): one GEMM
  // per projection over the pack, then each segment attends to itself only.
  nn::Tensor z_m = nn::SegmentAttention(
      self_attention_->ProjectQuery(rows), {self_attention_->ProjectKey(sequence)},
      {self_attention_->ProjectValue(sequence)}, row_offsets, offsets,
      /*causal=*/true, self_attention_->scale());
  if (training()) z_m = nn::Dropout(z_m, dropout, *rng, /*training=*/true);
  // 2. Add & normalize (row-wise, safe over the pack).
  nn::Tensor h1 = norm1_->Forward(nn::Add(rows, z_m));
  // 3. Cross attention over each segment's own historical knowledge, its
  // K/V read in place from the parts.
  std::vector<nn::Tensor> hist_k, hist_v;
  hist_k.reserve(history.size());
  hist_v.reserve(history.size());
  for (const HistoryKv& kv : history) {
    hist_k.push_back(kv.k);
    hist_v.push_back(kv.v);
  }
  nn::Tensor z_h = nn::SegmentAttention(
      cross_attention_->ProjectQuery(h1), hist_k, hist_v, row_offsets,
      hist_offsets, /*causal=*/false, cross_attention_->scale());
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

std::vector<HistoryKv> FusionModule::ProjectHistory(
    const nn::Tensor& history) const {
  std::vector<HistoryKv> kv;
  kv.reserve(blocks_.size());
  for (const auto& block : blocks_) kv.push_back(block->ProjectHistory(history));
  return kv;
}

nn::Tensor FusionModule::Forward(const nn::Tensor& sequence,
                                 const std::vector<int64_t>& offsets,
                                 const std::vector<std::vector<HistoryKv>>& history,
                                 const std::vector<int64_t>& hist_offsets,
                                 common::Rng* rng) const {
  for (const std::vector<HistoryKv>& part : history) {
    TSPN_CHECK_EQ(part.size(), blocks_.size());
  }
  // Only h_out leaves the module. At inference the final block therefore
  // computes just each segment's last row; training keeps every row, so
  // its dropout draws (which share the rng with negative sampling) and the
  // checkpoint stay as they are.
  const bool last_rows_only = !training();
  nn::Tensor h = sequence;
  std::vector<HistoryKv> block_history(history.size());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    for (size_t p = 0; p < history.size(); ++p) block_history[p] = history[p][i];
    h = blocks_[i]->Forward(h, offsets, block_history, hist_offsets, rng,
                            config_.dropout,
                            last_rows_only && i + 1 == blocks_.size());
  }
  if (last_rows_only) return h;
  std::vector<nn::Tensor> last_rows;
  last_rows.reserve(offsets.size() - 1);
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    last_rows.push_back(nn::Row(h, offsets[b + 1] - 1));
  }
  return nn::StackRows(last_rows);
}

}  // namespace tspn::core
