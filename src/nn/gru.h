#ifndef TSPN_NN_GRU_H_
#define TSPN_NN_GRU_H_

#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"

namespace tspn::nn {

/// Gated recurrent unit cell (Cho et al., 2014):
///   z = sigmoid(Wz x + Uz h + bz)
///   r = sigmoid(Wr x + Ur h + br)
///   n = tanh(Wn x + r * (Un h) + bn)
///   h' = (1 - z) * n + z * h
class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, common::Rng& rng);

  /// One step: x [input_dim], h [hidden_dim] -> h' [hidden_dim].
  Tensor Step(const Tensor& x, const Tensor& h) const;

  /// Runs the cell over a sequence [L, input_dim] starting from a zero state;
  /// returns all hidden states stacked as [L, hidden_dim].
  Tensor Unroll(const Tensor& sequence) const;

  int64_t hidden_dim() const { return hidden_dim_; }

  /// A fresh zero initial state.
  Tensor InitialState() const { return Tensor::Zeros({hidden_dim_}); }

 private:
  int64_t hidden_dim_;
  Linear wz_, uz_;
  Linear wr_, ur_;
  Linear wn_, un_;
};

}  // namespace tspn::nn

#endif  // TSPN_NN_GRU_H_
