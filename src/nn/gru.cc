#include "nn/gru.h"

#include "common/check.h"
#include "nn/ops.h"

namespace tspn::nn {

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, common::Rng& rng)
    : hidden_dim_(hidden_dim),
      wz_(input_dim, hidden_dim, rng), uz_(hidden_dim, hidden_dim, rng, false),
      wr_(input_dim, hidden_dim, rng), ur_(hidden_dim, hidden_dim, rng, false),
      wn_(input_dim, hidden_dim, rng), un_(hidden_dim, hidden_dim, rng, false) {
  RegisterChild(&wz_);
  RegisterChild(&uz_);
  RegisterChild(&wr_);
  RegisterChild(&ur_);
  RegisterChild(&wn_);
  RegisterChild(&un_);
}

Tensor GruCell::Step(const Tensor& x, const Tensor& h) const {
  Tensor z = Sigmoid(Add(wz_.Forward(x), uz_.Forward(h)));
  Tensor r = Sigmoid(Add(wr_.Forward(x), ur_.Forward(h)));
  Tensor n = Tanh(Add(wn_.Forward(x), Mul(r, un_.Forward(h))));
  Tensor one_minus_z = AddScalar(Neg(z), 1.0f);
  return Add(Mul(one_minus_z, n), Mul(z, h));
}

Tensor GruCell::Unroll(const Tensor& sequence) const {
  TSPN_CHECK_EQ(sequence.rank(), 2);
  int64_t length = sequence.dim(0);
  Tensor h = InitialState();
  std::vector<Tensor> states;
  states.reserve(static_cast<size_t>(length));
  for (int64_t t = 0; t < length; ++t) {
    h = Step(Row(sequence, t), h);
    states.push_back(h);
  }
  return StackRows(states);
}

}  // namespace tspn::nn
