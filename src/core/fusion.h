#ifndef TSPN_CORE_FUSION_H_
#define TSPN_CORE_FUSION_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "nn/layers.h"

namespace tspn::core {

/// One attention block's cross-attention keys and values over a history
/// ([rows, dm] each). Under frozen weights they depend on the history alone,
/// so inference projects each history once and caches the pair.
struct HistoryKv {
  nn::Tensor k;
  nn::Tensor v;
};

/// One attention block AB_i of Sec. V-A: masked sequential self-attention,
/// add & layer-norm, cross-attention over historical knowledge, and a
/// position-wise feed-forward — each sublayer with a residual + norm for
/// training stability.
class AttentionBlock : public nn::Module {
 public:
  AttentionBlock(int64_t dm, common::Rng& rng);

  /// The cross-attention keys and values of `history` ([rows, dm]). Rows are
  /// projected independently, so a history projected alone gives the same
  /// bits as inside a pack.
  HistoryKv ProjectHistory(const nn::Tensor& history) const;

  /// Forward over a pack of B variable-length segments. `sequence` holds
  /// the segments concatenated row-wise ([total, dm], boundaries in
  /// `offsets`, size B+1). `history` holds the cross-attention K/V as parts
  /// ([rows, dm] each, ProjectHistory pairs) read in place: the parts
  /// concatenated row-wise hold each segment's history at `hist_offsets`,
  /// every segment has at least one row, and no segment straddles two
  /// parts. One packed part and one part per segment give the same bits.
  /// The projections, norms and feed-forward run as single GEMMs over the
  /// whole pack, and both attentions are one nn::SegmentAttention each.
  /// Every packed op is row-wise with a per-row accumulation order
  /// independent of the number of rows, so a segment's rows do not depend
  /// on what else is in the pack. In training mode dropout (rate `dropout`,
  /// drawn from `rng`) is applied to the packed sublayer outputs z_m and
  /// z_h; `rng` may be null only when !training(). Returns [total, dm], or
  /// with `last_rows_only` just each segment's last position ([B, dm]): its
  /// query, and everything after the self-attention, then run on B rows
  /// while the keys and values still cover all rows.
  nn::Tensor Forward(const nn::Tensor& sequence,
                     const std::vector<int64_t>& offsets,
                     const std::vector<HistoryKv>& history,
                     const std::vector<int64_t>& hist_offsets,
                     common::Rng* rng, float dropout,
                     bool last_rows_only = false) const;

 private:
  std::unique_ptr<nn::Attention> self_attention_;
  std::unique_ptr<nn::LayerNormLayer> norm1_;
  std::unique_ptr<nn::Attention> cross_attention_;
  std::unique_ptr<nn::LayerNormLayer> norm2_;
  std::unique_ptr<nn::Linear> feed_forward_;
  std::unique_ptr<nn::LayerNormLayer> norm3_;
};

/// MP1 / MP2 (Sec. V-A): N stacked attention blocks fusing the current
/// prefix-sequence embedding with historical knowledge; the last position of
/// the final layer is the prediction vector h_out.
class FusionModule : public nn::Module {
 public:
  FusionModule(const TspnRaConfig& config, common::Rng& rng);

  /// Every block's ProjectHistory of `history`, in block order.
  std::vector<HistoryKv> ProjectHistory(const nn::Tensor& history) const;

  /// Forward over a pack of B segments (see AttentionBlock::Forward for
  /// the packing contract and the dropout rule). `history` holds the K/V
  /// parts, each one ProjectHistory result (one pair per block): a single
  /// packed part, or one per segment. Returns h_out = H_out[-1] per
  /// segment: [B, dm], row b the last position of segment b after the
  /// final block. In eval mode the final block computes only those rows
  /// (bitwise the same values).
  nn::Tensor Forward(const nn::Tensor& sequence,
                     const std::vector<int64_t>& offsets,
                     const std::vector<std::vector<HistoryKv>>& history,
                     const std::vector<int64_t>& hist_offsets,
                     common::Rng* rng) const;

 private:
  const TspnRaConfig config_;
  std::vector<std::unique_ptr<AttentionBlock>> blocks_;
};

}  // namespace tspn::core

#endif  // TSPN_CORE_FUSION_H_
