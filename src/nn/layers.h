#ifndef TSPN_NN_LAYERS_H_
#define TSPN_NN_LAYERS_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace tspn::nn {

/// Base class for parameterized network modules. Subclasses register their
/// parameters (and child modules) so Parameters() can enumerate everything
/// for the optimizer / serializer.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters in this module and its children (stable order).
  std::vector<Tensor> Parameters() const;

  /// Total number of scalar parameters.
  int64_t ParameterCount() const;

  /// Toggles training mode (affects dropout) recursively.
  void SetTraining(bool training);
  bool training() const { return training_; }

 protected:
  Tensor RegisterParameter(Tensor parameter);
  void RegisterChild(Module* child);

 private:
  std::vector<Tensor> parameters_;
  std::vector<Module*> children_;
  bool training_ = true;
};

/// Affine layer: y = x W^T + b, x is [N, in] or [in].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, common::Rng& rng,
         bool with_bias = true);

  Tensor Forward(const Tensor& x) const;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;  // [out, in]
  Tensor bias_;    // [out] (undefined when with_bias=false)
};

/// Lookup table: indices -> rows of a trainable [vocab, dim] matrix.
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t dim, common::Rng& rng);

  /// [L] indices -> [L, dim].
  Tensor Forward(const std::vector<int64_t>& indices) const;

  /// Single index -> [dim].
  Tensor ForwardOne(int64_t index) const;

  /// The whole table (e.g. for tied-weight scoring).
  const Tensor& weight() const { return weight_; }
  int64_t vocab_size() const { return weight_.dim(0); }
  int64_t dim() const { return weight_.dim(1); }

 private:
  Tensor weight_;
};

/// Layer normalization module with trainable affine parameters.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int64_t dim);

  Tensor Forward(const Tensor& x) const;

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// Two-layer MLP: Linear -> ReLU -> Linear.
class FeedForward : public Module {
 public:
  FeedForward(int64_t dim, int64_t hidden, common::Rng& rng);

  Tensor Forward(const Tensor& x) const;

 private:
  Linear fc1_;
  Linear fc2_;
};

/// Single-head scaled-dot-product attention with optional causal masking.
/// Computes softmax(Q K^T / sqrt(d)) V where Q = q_in Wq, etc.
class Attention : public Module {
 public:
  Attention(int64_t dim, common::Rng& rng);

  /// query_in: [Lq, D]; key_value_in: [Lk, D]. If `causal` is true, position
  /// i may attend only to positions <= i + (Lk - Lq) (Lq <= Lk). One segment
  /// of SegmentAttention.
  Tensor Forward(const Tensor& query_in, const Tensor& key_value_in,
                 bool causal = false) const;

  /// The three input projections, exposed separately so a packed-batch
  /// caller can project many concatenated sequences with one GEMM each and
  /// then attend per segment with SegmentAttention(..., scale()).
  Tensor ProjectQuery(const Tensor& x) const { return wq_.Forward(x); }
  Tensor ProjectKey(const Tensor& x) const { return wk_.Forward(x); }
  Tensor ProjectValue(const Tensor& x) const { return wv_.Forward(x); }

  /// The score scale 1 / sqrt(d).
  float scale() const { return 1.0f / std::sqrt(static_cast<float>(dim_)); }

 private:
  int64_t dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
};

}  // namespace tspn::nn

#endif  // TSPN_NN_LAYERS_H_
