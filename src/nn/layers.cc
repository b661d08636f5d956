#include "nn/layers.h"

#include <cmath>

#include "common/check.h"

namespace tspn::nn {

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> all = parameters_;
  for (const Module* child : children_) {
    std::vector<Tensor> sub = child->Parameters();
    all.insert(all.end(), sub.begin(), sub.end());
  }
  return all;
}

int64_t Module::ParameterCount() const {
  int64_t count = 0;
  for (const Tensor& p : Parameters()) count += p.numel();
  return count;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (Module* child : children_) child->SetTraining(training);
}

Tensor Module::RegisterParameter(Tensor parameter) {
  TSPN_CHECK(parameter.defined());
  TSPN_CHECK(parameter.requires_grad());
  parameters_.push_back(parameter);
  return parameter;
}

void Module::RegisterChild(Module* child) {
  TSPN_CHECK(child != nullptr);
  children_.push_back(child);
}

namespace {
float XavierBound(int64_t fan_in, int64_t fan_out) {
  return std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
}
}  // namespace

Linear::Linear(int64_t in_features, int64_t out_features, common::Rng& rng,
               bool with_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(Tensor::RandomUniform(
      {out_features, in_features}, XavierBound(in_features, out_features), rng,
      /*requires_grad=*/true));
  if (with_bias) {
    bias_ = RegisterParameter(Tensor::Zeros({out_features}, /*requires_grad=*/true));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  bool vector_input = x.rank() == 1;
  Tensor x2 = vector_input ? Reshape(x, {1, in_features_}) : x;
  TSPN_CHECK_EQ(x2.dim(1), in_features_);
  Tensor y = Affine(x2, weight_, bias_);
  return vector_input ? Reshape(y, {out_features_}) : y;
}

Embedding::Embedding(int64_t vocab_size, int64_t dim, common::Rng& rng) {
  weight_ = RegisterParameter(Tensor::RandomNormal(
      {vocab_size, dim}, 1.0f / std::sqrt(static_cast<float>(dim)), rng,
      /*requires_grad=*/true));
}

Tensor Embedding::Forward(const std::vector<int64_t>& indices) const {
  return EmbeddingGather(weight_, indices);
}

Tensor Embedding::ForwardOne(int64_t index) const {
  return Reshape(EmbeddingGather(weight_, {index}), {dim()});
}

LayerNormLayer::LayerNormLayer(int64_t dim) {
  gamma_ = RegisterParameter(Tensor::Full({dim}, 1.0f, /*requires_grad=*/true));
  beta_ = RegisterParameter(Tensor::Zeros({dim}, /*requires_grad=*/true));
}

Tensor LayerNormLayer::Forward(const Tensor& x) const {
  return LayerNorm(x, gamma_, beta_);
}

FeedForward::FeedForward(int64_t dim, int64_t hidden, common::Rng& rng)
    : fc1_(dim, hidden, rng), fc2_(hidden, dim, rng) {
  RegisterChild(&fc1_);
  RegisterChild(&fc2_);
}

Tensor FeedForward::Forward(const Tensor& x) const {
  return fc2_.Forward(Relu(fc1_.Forward(x)));
}

Attention::Attention(int64_t dim, common::Rng& rng)
    : dim_(dim), wq_(dim, dim, rng, /*with_bias=*/false),
      wk_(dim, dim, rng, /*with_bias=*/false), wv_(dim, dim, rng, /*with_bias=*/false) {
  RegisterChild(&wq_);
  RegisterChild(&wk_);
  RegisterChild(&wv_);
}

Tensor Attention::Forward(const Tensor& query_in, const Tensor& key_value_in,
                          bool causal) const {
  TSPN_CHECK_EQ(query_in.rank(), 2);
  TSPN_CHECK_EQ(key_value_in.rank(), 2);
  return SegmentAttention(wq_.Forward(query_in), {wk_.Forward(key_value_in)},
                          {wv_.Forward(key_value_in)}, {0, query_in.dim(0)},
                          {0, key_value_in.dim(0)}, causal, scale());
}

}  // namespace tspn::nn
