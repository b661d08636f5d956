#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "common/check.h"
#include "nn/kernels.h"

namespace tspn::nn {

namespace {

using internal::TensorNode;

/// Creates an op-result tensor. If autograd is enabled and any parent
/// requires grad, the node records its parents and backward closure.
Tensor MakeOp(Shape shape, std::vector<float> data, std::vector<Tensor> parents,
              std::function<void(TensorNode&)> backward, const char* op) {
  bool track = NoGradGuard::GradEnabled();
  bool any_requires = false;
  if (track) {
    for (const Tensor& p : parents) {
      if (p.requires_grad()) {
        any_requires = true;
        break;
      }
    }
  }
  Tensor out = Tensor::FromVector(shape, std::move(data), track && any_requires);
  if (track && any_requires) {
    TensorNode* node = out.node().get();
    node->parents.reserve(parents.size());
    for (const Tensor& p : parents) node->parents.push_back(p.node());
    node->backward = std::move(backward);
    node->op = op;
  }
  return out;
}

/// Raw gradient pointer of `parent` (allocating on first use), or nullptr if
/// the parent does not participate in the backward pass. Lets backward inner
/// loops run on raw pointers with the requires_grad/EnsureGrad check hoisted
/// out entirely.
inline float* GradPtr(const std::shared_ptr<TensorNode>& parent) {
  if (!parent->requires_grad) return nullptr;
  parent->EnsureGrad();
  return parent->grad.data();
}

// --- Broadcasting machinery -------------------------------------------------

constexpr int kMaxRank = 4;

struct BroadcastPlan {
  Shape out_shape;
  int64_t out_numel = 0;
  int rank = 0;
  int64_t out_dims[kMaxRank];
  int64_t a_strides[kMaxRank];
  int64_t b_strides[kMaxRank];
};

BroadcastPlan MakeBroadcastPlan(const Shape& a, const Shape& b) {
  TSPN_CHECK_LE(a.size(), static_cast<size_t>(kMaxRank));
  TSPN_CHECK_LE(b.size(), static_cast<size_t>(kMaxRank));
  BroadcastPlan plan;
  plan.rank = static_cast<int>(std::max(a.size(), b.size()));
  // Right-align shapes.
  int64_t a_dims[kMaxRank], b_dims[kMaxRank];
  for (int i = 0; i < plan.rank; ++i) {
    int ai = static_cast<int>(a.size()) - plan.rank + i;
    int bi = static_cast<int>(b.size()) - plan.rank + i;
    a_dims[i] = ai >= 0 ? a[static_cast<size_t>(ai)] : 1;
    b_dims[i] = bi >= 0 ? b[static_cast<size_t>(bi)] : 1;
    TSPN_CHECK(a_dims[i] == b_dims[i] || a_dims[i] == 1 || b_dims[i] == 1)
        << "incompatible broadcast " << ShapeToString(a) << " vs " << ShapeToString(b);
    plan.out_dims[i] = std::max(a_dims[i], b_dims[i]);
  }
  // Row-major strides with 0 on broadcast axes.
  int64_t a_stride = 1, b_stride = 1;
  for (int i = plan.rank - 1; i >= 0; --i) {
    plan.a_strides[i] = (a_dims[i] == 1 && plan.out_dims[i] != 1) ? 0 : a_stride;
    plan.b_strides[i] = (b_dims[i] == 1 && plan.out_dims[i] != 1) ? 0 : b_stride;
    a_stride *= a_dims[i];
    b_stride *= b_dims[i];
  }
  plan.out_shape.assign(plan.out_dims, plan.out_dims + plan.rank);
  plan.out_numel = NumElements(plan.out_shape);
  return plan;
}

/// Iterates the broadcast output space calling fn(out_index, a_index, b_index).
template <typename Fn>
void ForEachBroadcast(const BroadcastPlan& plan, Fn&& fn) {
  int64_t counters[kMaxRank] = {0, 0, 0, 0};
  int64_t ai = 0, bi = 0;
  for (int64_t out = 0; out < plan.out_numel; ++out) {
    fn(out, ai, bi);
    for (int d = plan.rank - 1; d >= 0; --d) {
      ++counters[d];
      ai += plan.a_strides[d];
      bi += plan.b_strides[d];
      if (counters[d] < plan.out_dims[d]) break;
      ai -= plan.a_strides[d] * plan.out_dims[d];
      bi -= plan.b_strides[d] * plan.out_dims[d];
      counters[d] = 0;
    }
  }
}

enum class BinaryKind { kAdd, kSub, kMul, kDiv };

template <BinaryKind kKind>
inline float BinaryApply(float x, float y) {
  if constexpr (kKind == BinaryKind::kAdd) return x + y;
  if constexpr (kKind == BinaryKind::kSub) return x - y;
  if constexpr (kKind == BinaryKind::kMul) return x * y;
  return x / y;
}

/// Memory layout of a binary op's operands relative to its output. Everything
/// except kGeneric runs on flat contiguous loops with no odometer dispatch.
enum class BinaryLayout { kSameShape, kScalarLhs, kScalarRhs, kGeneric };

BinaryLayout ClassifyBinaryLayout(const BroadcastPlan& plan, int64_t a_numel,
                                  int64_t b_numel) {
  // An operand whose numel matches the output cannot have a broadcast axis,
  // so its traversal is contiguous row-major even if ranks differ.
  if (a_numel == plan.out_numel && b_numel == plan.out_numel) {
    return BinaryLayout::kSameShape;
  }
  if (a_numel == 1) return BinaryLayout::kScalarLhs;
  if (b_numel == 1) return BinaryLayout::kScalarRhs;
  return BinaryLayout::kGeneric;
}

template <BinaryKind kKind>
void BinaryForwardFill(BinaryLayout layout, const BroadcastPlan& plan,
                       const float* pa, const float* pb, float* out) {
  const int64_t n = plan.out_numel;
  switch (layout) {
    case BinaryLayout::kSameShape:
      for (int64_t i = 0; i < n; ++i) out[i] = BinaryApply<kKind>(pa[i], pb[i]);
      break;
    case BinaryLayout::kScalarLhs: {
      const float a0 = pa[0];
      for (int64_t i = 0; i < n; ++i) out[i] = BinaryApply<kKind>(a0, pb[i]);
      break;
    }
    case BinaryLayout::kScalarRhs: {
      const float b0 = pb[0];
      for (int64_t i = 0; i < n; ++i) out[i] = BinaryApply<kKind>(pa[i], b0);
      break;
    }
    case BinaryLayout::kGeneric:
      ForEachBroadcast(plan, [&](int64_t o, int64_t i, int64_t j) {
        out[o] = BinaryApply<kKind>(pa[i], pb[j]);
      });
      break;
  }
}

/// d(out)/da and d(out)/db of one output element.
template <BinaryKind kKind>
inline float BinaryGradA(float go, float /*av*/, float bv) {
  if constexpr (kKind == BinaryKind::kAdd) return go;
  if constexpr (kKind == BinaryKind::kSub) return go;
  if constexpr (kKind == BinaryKind::kMul) return go * bv;
  return go / bv;
}

template <BinaryKind kKind>
inline float BinaryGradB(float go, float av, float bv) {
  if constexpr (kKind == BinaryKind::kAdd) return go;
  if constexpr (kKind == BinaryKind::kSub) return -go;
  if constexpr (kKind == BinaryKind::kMul) return go * av;
  return -go * av / (bv * bv);
}

template <BinaryKind kKind>
void BinaryBackward(BinaryLayout layout, const BroadcastPlan& plan,
                    TensorNode& node) {
  const auto& pa_node = node.parents[0];
  const auto& pb_node = node.parents[1];
  float* ga = GradPtr(pa_node);
  float* gb = GradPtr(pb_node);
  if (ga == nullptr && gb == nullptr) return;
  const float* g = node.grad.data();
  const float* av = pa_node->data.data();
  const float* bv = pb_node->data.data();
  const int64_t n = plan.out_numel;
  switch (layout) {
    case BinaryLayout::kSameShape:
      if (ga != nullptr) {
        for (int64_t i = 0; i < n; ++i) {
          ga[i] += BinaryGradA<kKind>(g[i], av[i], bv[i]);
        }
      }
      if (gb != nullptr) {
        for (int64_t i = 0; i < n; ++i) {
          gb[i] += BinaryGradB<kKind>(g[i], av[i], bv[i]);
        }
      }
      break;
    case BinaryLayout::kScalarLhs: {
      const float a0 = av[0];
      if (ga != nullptr) {
        double acc = 0.0;  // scalar side reduces over the whole output
        for (int64_t i = 0; i < n; ++i) acc += BinaryGradA<kKind>(g[i], a0, bv[i]);
        ga[0] += static_cast<float>(acc);
      }
      if (gb != nullptr) {
        for (int64_t i = 0; i < n; ++i) {
          gb[i] += BinaryGradB<kKind>(g[i], a0, bv[i]);
        }
      }
      break;
    }
    case BinaryLayout::kScalarRhs: {
      const float b0 = bv[0];
      if (ga != nullptr) {
        for (int64_t i = 0; i < n; ++i) {
          ga[i] += BinaryGradA<kKind>(g[i], av[i], b0);
        }
      }
      if (gb != nullptr) {
        double acc = 0.0;
        for (int64_t i = 0; i < n; ++i) acc += BinaryGradB<kKind>(g[i], av[i], b0);
        gb[0] += static_cast<float>(acc);
      }
      break;
    }
    case BinaryLayout::kGeneric:
      ForEachBroadcast(plan, [&](int64_t o, int64_t i, int64_t j) {
        const float go = g[o];
        if (ga != nullptr) ga[i] += BinaryGradA<kKind>(go, av[i], bv[j]);
        if (gb != nullptr) gb[j] += BinaryGradB<kKind>(go, av[i], bv[j]);
      });
      break;
  }
}

template <BinaryKind kKind>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, const char* name) {
  BroadcastPlan plan = MakeBroadcastPlan(a.shape(), b.shape());
  BinaryLayout layout = ClassifyBinaryLayout(plan, a.numel(), b.numel());
  std::vector<float> out(static_cast<size_t>(plan.out_numel));
  BinaryForwardFill<kKind>(layout, plan, a.data(), b.data(), out.data());
  auto backward = [plan, layout](TensorNode& node) {
    BinaryBackward<kKind>(layout, plan, node);
  };
  return MakeOp(plan.out_shape, std::move(out), {a, b}, std::move(backward), name);
}

/// Unary op helper: `fn(x)` computes the value, `dfn(x, y)` computes
/// d(out)/d(in) from the input and (when kSaveOutput) the saved output.
/// Both are compile-time functors, so the per-element dispatch of the old
/// std::function implementation inlines away.
template <bool kSaveOutput, typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& a, Fwd fn, Bwd dfn, const char* name) {
  const int64_t n = a.numel();
  std::vector<float> out(static_cast<size_t>(n));
  const float* pa = a.data();
  for (int64_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = fn(pa[i]);
  const bool track = NoGradGuard::GradEnabled() && a.requires_grad();
  std::vector<float> saved;
  if (kSaveOutput && track) saved = out;
  auto backward = [saved = std::move(saved), dfn](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    const float* g = node.grad.data();
    const float* x = parent->data.data();
    const int64_t count = static_cast<int64_t>(node.grad.size());
    for (int64_t i = 0; i < count; ++i) {
      if constexpr (kSaveOutput) {
        pg[i] += g[i] * dfn(x[i], saved[static_cast<size_t>(i)]);
      } else {
        pg[i] += g[i] * dfn(x[i], 0.0f);
      }
    }
  };
  return MakeOp(a.shape(), std::move(out), {a}, std::move(backward), name);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary<BinaryKind::kAdd>(a, b, "add");
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary<BinaryKind::kSub>(a, b, "sub");
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary<BinaryKind::kMul>(a, b, "mul");
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary<BinaryKind::kDiv>(a, b, "div");
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp<false>(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; },
      "add_scalar");
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp<false>(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; }, "mul_scalar");
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Exp(const Tensor& a) {
  return UnaryOp<true>(
      a, [](float x) { return std::exp(x); }, [](float, float y) { return y; }, "exp");
}

Tensor Log(const Tensor& a) {
  return UnaryOp<false>(
      a, [](float x) { return std::log(x); }, [](float x, float) { return 1.0f / x; },
      "log");
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp<true>(
      a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / std::max(y, 1e-12f); }, "sqrt");
}

Tensor Relu(const Tensor& a) {
  return UnaryOp<false>(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; }, "relu");
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryOp<false>(
      a, [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x > 0.0f ? 1.0f : negative_slope; },
      "leaky_relu");
}

Tensor Elu(const Tensor& a, float alpha) {
  return UnaryOp<true>(
      a, [alpha](float x) { return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f); },
      [alpha](float x, float y) { return x > 0.0f ? 1.0f : y + alpha; }, "elu");
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp<true>(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); }, "sigmoid");
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp<true>(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; }, "tanh");
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  TSPN_CHECK_EQ(NumElements(shape), a.numel());
  // Aliasing view: the output node shares the input's storage, so no element
  // is copied. Mutating either tensor's data is visible through both.
  const bool track = NoGradGuard::GradEnabled() && a.requires_grad();
  auto node = std::make_shared<TensorNode>(shape, a.node()->storage, track);
  if (track) {
    node->parents.push_back(a.node());
    node->backward = [](TensorNode& self) {
      const auto& parent = self.parents[0];
      float* pg = GradPtr(parent);
      if (pg == nullptr) return;
      const float* g = self.grad.data();
      const int64_t count = static_cast<int64_t>(self.grad.size());
      for (int64_t i = 0; i < count; ++i) pg[i] += g[i];
    };
    node->op = "reshape";
  }
  return Tensor(std::move(node));
}

Tensor Transpose(const Tensor& a) {
  TSPN_CHECK_EQ(a.rank(), 2);
  int64_t m = a.dim(0), n = a.dim(1);
  std::vector<float> out(static_cast<size_t>(m * n));
  const float* pa = a.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out[static_cast<size_t>(j * m + i)] = pa[i * n + j];
  }
  auto backward = [m, n](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    const float* g = node.grad.data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) pg[i * n + j] += g[j * m + i];
    }
  };
  return MakeOp({n, m}, std::move(out), {a}, backward, "transpose");
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  TSPN_CHECK(!parts.empty());
  // A single part is returned as is, not copied behind a concat node: a
  // pack of one then builds the same autograd graph as the unpacked tensor,
  // so gradients into a shared parameter are summed in the same order.
  if (parts.size() == 1) return parts[0];
  Shape shape = parts[0].shape();
  int64_t total_rows = 0;
  // Row size comes from the trailing dims: numel()/dim(0) is wrong when the
  // first part has zero rows.
  int64_t row_size = 1;
  for (size_t d = 1; d < shape.size(); ++d) row_size *= shape[d];
  for (const Tensor& p : parts) {
    TSPN_CHECK_EQ(p.rank(), static_cast<int>(shape.size()));
    for (size_t d = 1; d < shape.size(); ++d) TSPN_CHECK_EQ(p.shape()[d], shape[d]);
    total_rows += p.dim(0);
  }
  shape[0] = total_rows;
  std::vector<float> out;
  out.reserve(static_cast<size_t>(total_rows * row_size));
  for (const Tensor& p : parts) {
    const float* pp = p.data();
    out.insert(out.end(), pp, pp + p.numel());
  }
  auto backward = [](TensorNode& node) {
    const float* g = node.grad.data();
    size_t offset = 0;
    for (const auto& parent : node.parents) {
      size_t count = parent->data.size();
      if (float* pg = GradPtr(parent)) {
        for (size_t i = 0; i < count; ++i) pg[i] += g[offset + i];
      }
      offset += count;
    }
  };
  return MakeOp(shape, std::move(out), parts, backward, "concat_rows");
}

Tensor ConcatLast(const std::vector<Tensor>& parts) {
  TSPN_CHECK(!parts.empty());
  int rank = parts[0].rank();
  TSPN_CHECK(rank == 1 || rank == 2);
  int64_t rows = rank == 1 ? 1 : parts[0].dim(0);
  int64_t total_cols = 0;
  std::vector<int64_t> cols(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    TSPN_CHECK_EQ(parts[i].rank(), rank);
    if (rank == 2) {
      TSPN_CHECK_EQ(parts[i].dim(0), rows);
    }
    cols[i] = rank == 1 ? parts[i].dim(0) : parts[i].dim(1);
    total_cols += cols[i];
  }
  std::vector<float> out(static_cast<size_t>(rows * total_cols));
  int64_t col_offset = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    const float* pp = parts[i].data();
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(&out[static_cast<size_t>(r * total_cols + col_offset)],
                  pp + r * cols[i], static_cast<size_t>(cols[i]) * sizeof(float));
    }
    col_offset += cols[i];
  }
  Shape shape = rank == 1 ? Shape{total_cols} : Shape{rows, total_cols};
  auto backward = [rows, total_cols, cols](TensorNode& node) {
    const float* g = node.grad.data();
    int64_t offset = 0;
    for (size_t i = 0; i < node.parents.size(); ++i) {
      if (float* pg = GradPtr(node.parents[i])) {
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols[i]; ++c) {
            pg[r * cols[i] + c] += g[r * total_cols + offset + c];
          }
        }
      }
      offset += cols[i];
    }
  };
  return MakeOp(shape, std::move(out), parts, backward, "concat_last");
}

Tensor StackRows(const std::vector<Tensor>& rows) {
  TSPN_CHECK(!rows.empty());
  int64_t d = rows[0].numel();
  std::vector<float> out;
  out.reserve(rows.size() * static_cast<size_t>(d));
  for (const Tensor& r : rows) {
    TSPN_CHECK_EQ(r.numel(), d);
    const float* pr = r.data();
    out.insert(out.end(), pr, pr + d);
  }
  auto backward = [d](TensorNode& node) {
    const float* g = node.grad.data();
    for (size_t i = 0; i < node.parents.size(); ++i) {
      float* pg = GradPtr(node.parents[i]);
      if (pg == nullptr) continue;
      const float* grow = g + i * static_cast<size_t>(d);
      for (int64_t j = 0; j < d; ++j) pg[j] += grow[j];
    }
  };
  return MakeOp({static_cast<int64_t>(rows.size()), d}, std::move(out), rows, backward,
                "stack_rows");
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t length) {
  TSPN_CHECK_EQ(a.rank(), 2);
  TSPN_CHECK_GE(start, 0);
  TSPN_CHECK_LE(start + length, a.dim(0));
  // The full range is the input itself: a pack of one then builds the same
  // autograd graph as the unpacked tensor, with no copy behind a slice node.
  if (start == 0 && length == a.dim(0)) return a;
  int64_t d = a.dim(1);
  std::vector<float> out(static_cast<size_t>(length * d));
  std::memcpy(out.data(), a.data() + start * d,
              static_cast<size_t>(length * d) * sizeof(float));
  auto backward = [start, d](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    const float* g = node.grad.data();
    const int64_t count = static_cast<int64_t>(node.grad.size());
    pg += start * d;
    for (int64_t i = 0; i < count; ++i) pg[i] += g[i];
  };
  return MakeOp({length, d}, std::move(out), {a}, backward, "slice_rows");
}

Tensor Row(const Tensor& a, int64_t index) {
  Tensor sliced = SliceRows(a, index, 1);
  return Reshape(sliced, {a.dim(1)});
}

Tensor SumAll(const Tensor& a) {
  double total = 0.0;
  const float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) total += pa[i];
  auto backward = [](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    const float g = node.grad[0];
    const int64_t count = static_cast<int64_t>(parent->grad.size());
    for (int64_t i = 0; i < count; ++i) pg[i] += g;
  };
  return MakeOp({1}, {static_cast<float>(total)}, {a}, backward, "sum_all");
}

Tensor MeanAll(const Tensor& a) {
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumRows(const Tensor& a) {
  TSPN_CHECK_EQ(a.rank(), 2);
  int64_t n = a.dim(0), d = a.dim(1);
  std::vector<float> out(static_cast<size_t>(d), 0.0f);
  const float* pa = a.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) out[static_cast<size_t>(j)] += pa[i * d + j];
  }
  auto backward = [n, d](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    const float* g = node.grad.data();
    for (int64_t i = 0; i < n; ++i) {
      float* prow = pg + i * d;
      for (int64_t j = 0; j < d; ++j) prow[j] += g[j];
    }
  };
  return MakeOp({d}, std::move(out), {a}, backward, "sum_rows");
}

Tensor MeanRows(const Tensor& a) {
  TSPN_CHECK_EQ(a.rank(), 2);
  return MulScalar(SumRows(a), 1.0f / static_cast<float>(a.dim(0)));
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TSPN_CHECK_EQ(a.rank(), 2);
  TSPN_CHECK_EQ(b.rank(), 2);
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  TSPN_CHECK_EQ(b.dim(0), k) << "matmul inner dims";
  // Forward, dA and dB all run through the same blocked dot-product kernel
  // C = Y * Z^T (kernels::DotProductGemm); only the operands differ:
  //   forward: out = A * (B^T)^T      -> Y = A,   Z = B^T (one transpose)
  //   dA      = dOut * B^T            -> Y = dOut, Z = B  (no transpose)
  //   dB      = A^T * dOut            -> Y = A^T, Z = dOut^T
  std::vector<float> out(static_cast<size_t>(m * n));
  {
    const float* bt = kernels::TransposeScratch(b.data(), k, n, 0);
    kernels::DotProductGemm(a.data(), bt, out.data(), m, n, k,
                            /*accumulate=*/false);
  }
  auto backward = [m, k, n](TensorNode& node) {
    const auto& pa_node = node.parents[0];
    const auto& pb_node = node.parents[1];
    const float* g = node.grad.data();
    if (float* ga = GradPtr(pa_node)) {
      kernels::DotProductGemm(g, pb_node->data.data(), ga, m, k, n,
                              /*accumulate=*/true);
    }
    if (float* gb = GradPtr(pb_node)) {
      const float* at = kernels::TransposeScratch(pa_node->data.data(), m, k, 0);
      const float* gt = kernels::TransposeScratch(g, m, n, 1);
      kernels::DotProductGemm(at, gt, gb, k, n, m,
                              /*accumulate=*/true);
    }
  };
  return MakeOp({m, n}, std::move(out), {a, b}, std::move(backward), "matmul");
}

Tensor Affine(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  TSPN_CHECK_EQ(x.rank(), 2);
  TSPN_CHECK_EQ(weight.rank(), 2);
  const int64_t m = x.dim(0), k = x.dim(1), n = weight.dim(0);
  TSPN_CHECK_EQ(weight.dim(1), k) << "affine inner dims";
  const bool with_bias = bias.defined();
  if (with_bias) {
    TSPN_CHECK_EQ(bias.numel(), n);
  }
  // W's rows are the columns of W^T, so y = x W^T is C = Y Z^T with Y = x
  // and Z = W as stored: no transpose. The bias adds in place, as the
  // broadcast Add it replaces does.
  std::vector<float> out(static_cast<size_t>(m * n));
  kernels::DotProductGemm(x.data(), weight.data(), out.data(), m, n, k,
                          /*accumulate=*/false);
  if (with_bias) {
    const float* pb = bias.data();
    for (int64_t p = 0; p < m; ++p) {
      float* row = out.data() + p * n;
      for (int64_t j = 0; j < n; ++j) row[j] += pb[j];
    }
  }
  // Backward computes MatMul's products on W^T, element for element:
  //   dx = dy (W^T)^T  -> Y = dy,   Z = W^T, MatMul's dA call
  //   dW = (x^T dy)^T  -> Y = dy^T, Z = x^T: MatMul's dB call with Y and Z
  //                       swapped, so dW lands in W's layout with no
  //                       transposed copy (each element is one dot product
  //                       whatever operand is Y)
  //   db = column sums of dy, row by row as in Add's broadcast backward.
  auto backward = [m, k, n, with_bias](TensorNode& node) {
    const auto& x_node = node.parents[0];
    const auto& w_node = node.parents[1];
    const float* g = node.grad.data();
    if (float* gx = GradPtr(x_node)) {
      const float* wt = kernels::TransposeScratch(w_node->data.data(), n, k, 0);
      kernels::DotProductGemm(g, wt, gx, m, k, n, /*accumulate=*/true);
    }
    if (float* gw = GradPtr(w_node)) {
      const float* gt = kernels::TransposeScratch(g, m, n, 0);
      const float* xt = kernels::TransposeScratch(x_node->data.data(), m, k, 1);
      kernels::DotProductGemm(gt, xt, gw, n, k, m, /*accumulate=*/true);
    }
    if (!with_bias) return;
    if (float* gb = GradPtr(node.parents[2])) {
      for (int64_t p = 0; p < m; ++p) {
        const float* row = g + p * n;
        for (int64_t j = 0; j < n; ++j) gb[j] += row[j];
      }
    }
  };
  std::vector<Tensor> parents = {x, weight};
  if (with_bias) parents.push_back(bias);
  return MakeOp({m, n}, std::move(out), std::move(parents), std::move(backward),
                "affine");
}

Tensor MatVec(const Tensor& a, const Tensor& v) {
  TSPN_CHECK_EQ(a.rank(), 2);
  TSPN_CHECK_EQ(v.rank(), 1);
  Tensor v2 = Reshape(v, {v.dim(0), 1});
  Tensor out = MatMul(a, v2);
  return Reshape(out, {a.dim(0)});
}

Tensor Dot(const Tensor& a, const Tensor& b) {
  TSPN_CHECK_EQ(a.rank(), 1);
  TSPN_CHECK_EQ(b.rank(), 1);
  return SumAll(Mul(a, b));
}

Tensor SparseGraphAttention(const Tensor& hk, const Tensor& a_src,
                            const Tensor& a_dst,
                            const std::vector<int32_t>& offsets,
                            const std::vector<int32_t>& cols,
                            float negative_slope) {
  TSPN_CHECK_EQ(hk.rank(), 2);
  const int64_t n = hk.dim(0), d = hk.dim(1);
  TSPN_CHECK_EQ(a_src.numel(), d);
  TSPN_CHECK_EQ(a_dst.numel(), d);
  TSPN_CHECK_EQ(static_cast<int64_t>(offsets.size()), n + 1);
  TSPN_CHECK_EQ(offsets.front(), 0);
  TSPN_CHECK_EQ(static_cast<size_t>(offsets.back()), cols.size());
  for (int64_t i = 0; i < n; ++i) {
    TSPN_CHECK_LE(offsets[static_cast<size_t>(i)], offsets[static_cast<size_t>(i + 1)]);
  }
  for (int32_t j : cols) TSPN_CHECK(j >= 0 && j < n) << "neighbour " << j;

  const float* x = hk.data();
  const float* as = a_src.data();
  const float* ad = a_dst.data();
  // The logit splits per node: z_ij = s_src[i] + s_dst[j].
  std::vector<float> s_src(static_cast<size_t>(n)), s_dst(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* xi = x + i * d;
    float src = 0.0f, dst = 0.0f;
    for (int64_t c = 0; c < d; ++c) {
      src += xi[c] * as[c];
      dst += xi[c] * ad[c];
    }
    s_src[static_cast<size_t>(i)] = src;
    s_dst[static_cast<size_t>(i)] = dst;
  }

  // Per edge: the pre-activation logit z (its sign picks the LeakyReLU
  // slope in backward) and the attention weight alpha.
  std::vector<float> logits(cols.size()), alpha(cols.size());
  std::vector<float> out(static_cast<size_t>(n * d), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    const size_t begin = static_cast<size_t>(offsets[static_cast<size_t>(i)]);
    const size_t end = static_cast<size_t>(offsets[static_cast<size_t>(i + 1)]);
    if (begin == end) continue;
    float mx = -std::numeric_limits<float>::infinity();
    for (size_t e = begin; e < end; ++e) {
      float z = s_src[static_cast<size_t>(i)] + s_dst[static_cast<size_t>(cols[e])];
      logits[e] = z;
      alpha[e] = z > 0.0f ? z : negative_slope * z;
      mx = std::max(mx, alpha[e]);
    }
    double denom = 0.0;
    for (size_t e = begin; e < end; ++e) {
      alpha[e] = static_cast<float>(std::exp(static_cast<double>(alpha[e] - mx)));
      denom += alpha[e];
    }
    const float inv_denom = static_cast<float>(1.0 / denom);
    float* yi = out.data() + i * d;
    for (size_t e = begin; e < end; ++e) {
      alpha[e] *= inv_denom;
      const float w = alpha[e];
      const float* xj = x + static_cast<int64_t>(cols[e]) * d;
      for (int64_t c = 0; c < d; ++c) yi[c] += w * xj[c];
    }
  }

  std::function<void(TensorNode&)> backward;
  if (NoGradGuard::GradEnabled()) {
    backward = [n, d, negative_slope, offsets, cols, logits = std::move(logits),
                alpha = std::move(alpha)](TensorNode& node) {
      const float* g = node.grad.data();
      const float* x = node.parents[0]->data.data();
      const float* as = node.parents[1]->data.data();
      const float* ad = node.parents[2]->data.data();
      float* gx = GradPtr(node.parents[0]);
      float* gas = GradPtr(node.parents[1]);
      float* gad = GradPtr(node.parents[2]);
      // dL/dz per edge, reduced onto the two per-node logit halves.
      std::vector<float> ds_src(static_cast<size_t>(n), 0.0f);
      std::vector<float> ds_dst(static_cast<size_t>(n), 0.0f);
      std::vector<float> dalpha(cols.size());  // dL/dalpha per edge
      for (int64_t i = 0; i < n; ++i) {
        const size_t begin = static_cast<size_t>(offsets[static_cast<size_t>(i)]);
        const size_t end = static_cast<size_t>(offsets[static_cast<size_t>(i + 1)]);
        if (begin == end) continue;
        const float* gi = g + i * d;
        double weighted = 0.0;  // sum_j alpha_ij * dL/dalpha_ij
        for (size_t e = begin; e < end; ++e) {
          const int64_t j = cols[e];
          const float* xj = x + j * d;
          float da = 0.0f;
          for (int64_t c = 0; c < d; ++c) da += gi[c] * xj[c];
          dalpha[e] = da;
          weighted += static_cast<double>(alpha[e]) * da;
          if (gx != nullptr) {
            float* gxj = gx + j * d;
            for (int64_t c = 0; c < d; ++c) gxj[c] += alpha[e] * gi[c];
          }
        }
        for (size_t e = begin; e < end; ++e) {
          float dz = alpha[e] * (dalpha[e] - static_cast<float>(weighted));
          if (logits[e] <= 0.0f) dz *= negative_slope;
          ds_src[static_cast<size_t>(i)] += dz;
          ds_dst[static_cast<size_t>(cols[e])] += dz;
        }
      }
      // s_src[i] = a_src . hk_i and s_dst[i] = a_dst . hk_i.
      for (int64_t i = 0; i < n; ++i) {
        const float src = ds_src[static_cast<size_t>(i)];
        const float dst = ds_dst[static_cast<size_t>(i)];
        const float* xi = x + i * d;
        if (gx != nullptr) {
          float* gxi = gx + i * d;
          for (int64_t c = 0; c < d; ++c) gxi[c] += src * as[c] + dst * ad[c];
        }
        if (gas != nullptr) {
          for (int64_t c = 0; c < d; ++c) gas[c] += src * xi[c];
        }
        if (gad != nullptr) {
          for (int64_t c = 0; c < d; ++c) gad[c] += dst * xi[c];
        }
      }
    };
  }
  return MakeOp({n, d}, std::move(out), {hk, a_src, a_dst}, std::move(backward),
                "sparse_graph_attention");
}

namespace {

/// Softmax (or log-softmax) of x[0, cols) into y[0, cols); y may alias x.
/// The one row formula behind Softmax, LogSoftmax and SegmentAttention.
void SoftmaxRow(const float* x, float* y, int64_t cols, bool log_space) {
  float mx = x[0];
  for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, x[c]);
  double denom = 0.0;
  for (int64_t c = 0; c < cols; ++c) denom += std::exp(static_cast<double>(x[c] - mx));
  float log_denom = static_cast<float>(std::log(denom));
  for (int64_t c = 0; c < cols; ++c) {
    float logit = x[c] - mx - log_denom;
    y[c] = log_space ? logit : std::exp(logit);
  }
}

}  // namespace

Tensor SegmentAttention(const Tensor& q, const std::vector<Tensor>& k_parts,
                        const std::vector<Tensor>& v_parts,
                        const std::vector<int64_t>& q_offsets,
                        const std::vector<int64_t>& k_offsets, bool causal,
                        float scale) {
  TSPN_CHECK_EQ(q.rank(), 2);
  TSPN_CHECK(!k_parts.empty());
  TSPN_CHECK_EQ(k_parts.size(), v_parts.size());
  const size_t num_parts = k_parts.size();
  const int64_t d = q.dim(1), dv = v_parts.front().dim(1);
  int64_t k_rows = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    TSPN_CHECK_EQ(k_parts[p].rank(), 2);
    TSPN_CHECK_EQ(v_parts[p].rank(), 2);
    TSPN_CHECK_EQ(k_parts[p].dim(1), d);
    TSPN_CHECK_EQ(v_parts[p].dim(1), dv);
    TSPN_CHECK_EQ(v_parts[p].dim(0), k_parts[p].dim(0));
    k_rows += k_parts[p].dim(0);
  }
  TSPN_CHECK_EQ(q_offsets.size(), k_offsets.size());
  TSPN_CHECK_GE(q_offsets.size(), 2u);
  TSPN_CHECK_EQ(q_offsets.front(), 0);
  TSPN_CHECK_EQ(k_offsets.front(), 0);
  TSPN_CHECK_EQ(q_offsets.back(), q.dim(0));
  TSPN_CHECK_EQ(k_offsets.back(), k_rows);
  const size_t batch = q_offsets.size() - 1;
  bool any_requires = q.requires_grad();
  for (size_t p = 0; p < num_parts; ++p) {
    any_requires = any_requires || k_parts[p].requires_grad() ||
                   v_parts[p].requires_grad();
  }
  // Every segment's [lq, lk] attention weights are kept for backward while a
  // graph is recorded; otherwise one buffer serves each segment in turn.
  const bool keep = NoGradGuard::GradEnabled() && any_requires;
  std::vector<int64_t> w_offsets(batch + 1, 0);
  // Each segment's keys lie inside one part: its index and first local row.
  std::vector<size_t> seg_part(batch, 0);
  std::vector<int64_t> seg_row(batch, 0);
  size_t part = 0;
  int64_t part_begin = 0;
  int64_t max_w = 0;
  for (size_t s = 0; s < batch; ++s) {
    const int64_t lq = q_offsets[s + 1] - q_offsets[s];
    const int64_t lk = k_offsets[s + 1] - k_offsets[s];
    TSPN_CHECK_GE(lq, 0);
    TSPN_CHECK_GE(lk, 0);
    TSPN_CHECK(lq == 0 || lk > 0) << "segment " << s << " has queries but no keys";
    TSPN_CHECK(!causal || lq <= lk) << "causal segment " << s << ": " << lq
                                    << " queries over " << lk << " keys";
    if (lk > 0) {
      while (k_offsets[s] >= part_begin + k_parts[part].dim(0)) {
        part_begin += k_parts[part].dim(0);
        ++part;
      }
      TSPN_CHECK_LE(k_offsets[s + 1], part_begin + k_parts[part].dim(0))
          << "segment " << s << " straddles two K/V parts";
      seg_part[s] = part;
      seg_row[s] = k_offsets[s] - part_begin;
    }
    w_offsets[s + 1] = w_offsets[s] + lq * lk;
    max_w = std::max(max_w, lq * lk);
  }
  std::vector<float> weights(static_cast<size_t>(keep ? w_offsets[batch] : max_w));
  std::vector<float> out(static_cast<size_t>(q.dim(0) * dv));
  for (size_t s = 0; s < batch; ++s) {
    const int64_t lq = q_offsets[s + 1] - q_offsets[s];
    const int64_t lk = k_offsets[s + 1] - k_offsets[s];
    if (lq == 0) continue;
    float* w = weights.data() + (keep ? w_offsets[s] : 0);
    const float* ks = k_parts[seg_part[s]].data() + seg_row[s] * d;
    const float* vs = v_parts[seg_part[s]].data() + seg_row[s] * dv;
    // Scores straight from the contiguous q and k rows: C = Y Z^T needs no
    // transpose. A causal row softmaxes its visible keys only; the rest get
    // weight 0, exactly what a -1e9 mask leaves after exp.
    kernels::DotProductGemm(q.data() + q_offsets[s] * d, ks, w, lq, lk, d,
                            /*accumulate=*/false);
    for (int64_t i = 0; i < lq; ++i) {
      float* row = w + i * lk;
      const int64_t visible = causal ? i + (lk - lq) + 1 : lk;
      for (int64_t c = 0; c < visible; ++c) row[c] *= scale;
      SoftmaxRow(row, row, visible, /*log_space=*/false);
      std::fill(row + visible, row + lk, 0.0f);
    }
    const float* vt = kernels::TransposeScratch(vs, lk, dv, 0);
    kernels::DotProductGemm(w, vt, out.data() + q_offsets[s] * dv, lq, dv, lk,
                            /*accumulate=*/false);
  }

  std::vector<Tensor> parents;
  parents.reserve(1 + 2 * num_parts);
  parents.push_back(q);
  parents.insert(parents.end(), k_parts.begin(), k_parts.end());
  parents.insert(parents.end(), v_parts.begin(), v_parts.end());
  std::function<void(TensorNode&)> backward;
  if (keep) {
    backward = [q_offsets, k_offsets, w_offsets = std::move(w_offsets),
                weights = std::move(weights), seg_part = std::move(seg_part),
                seg_row = std::move(seg_row), num_parts, d, dv, causal,
                scale](TensorNode& node) {
      const float* g = node.grad.data();
      const float* qd = node.parents[0]->data.data();
      float* gq = GradPtr(node.parents[0]);
      // Parents are q, then the K parts, then the V parts.
      std::vector<float*> gks(num_parts), gvs(num_parts);
      for (size_t p = 0; p < num_parts; ++p) {
        gks[p] = GradPtr(node.parents[1 + p]);
        gvs[p] = GradPtr(node.parents[1 + num_parts + p]);
      }
      std::vector<float> gw;  // one segment's dL/dweights, then dL/dscores
      for (size_t s = 0; s + 1 < q_offsets.size(); ++s) {
        const int64_t lq = q_offsets[s + 1] - q_offsets[s];
        const int64_t lk = k_offsets[s + 1] - k_offsets[s];
        if (lq == 0) continue;
        const size_t part = seg_part[s];
        const float* w = weights.data() + w_offsets[s];
        const float* go = g + q_offsets[s] * dv;
        const float* qs = qd + q_offsets[s] * d;
        const float* ks = node.parents[1 + part]->data.data() + seg_row[s] * d;
        const float* vs =
            node.parents[1 + num_parts + part]->data.data() + seg_row[s] * dv;
        float* gk = gks[part] != nullptr ? gks[part] + seg_row[s] * d : nullptr;
        float* gv = gvs[part] != nullptr ? gvs[part] + seg_row[s] * dv : nullptr;
        // out = w v: dL/dw = g v^T and dL/dv = w^T g.
        if (gq != nullptr || gk != nullptr) {
          gw.resize(static_cast<size_t>(lq * lk));
          kernels::DotProductGemm(go, vs, gw.data(), lq, lk, dv, /*accumulate=*/false);
        }
        if (gv != nullptr) {
          const float* wt = kernels::TransposeScratch(w, lq, lk, 0);
          const float* gt = kernels::TransposeScratch(go, lq, dv, 1);
          kernels::DotProductGemm(wt, gt, gv, lk, dv, lq, /*accumulate=*/true);
        }
        if (gq == nullptr && gk == nullptr) continue;
        // Softmax backward over the visible keys, then the scale. A hidden
        // key's weight is 0, so it adds nothing to the row's dot product and
        // gets no gradient.
        for (int64_t i = 0; i < lq; ++i) {
          const float* y = w + i * lk;
          float* gr = gw.data() + i * lk;
          const int64_t visible = causal ? i + (lk - lq) + 1 : lk;
          double dot = 0.0;
          for (int64_t c = 0; c < visible; ++c) dot += static_cast<double>(gr[c]) * y[c];
          for (int64_t c = 0; c < visible; ++c) {
            gr[c] = y[c] * (gr[c] - static_cast<float>(dot)) * scale;
          }
          std::fill(gr + visible, gr + lk, 0.0f);
        }
        // scores = q k^T: dL/dq = gs k and dL/dk = gs^T q. Each element of a
        // DotProductGemm is one dot product whose value does not depend on
        // which operand is Y, so dL/dk lands in k's row layout directly.
        if (gq != nullptr) {
          const float* kt = kernels::TransposeScratch(ks, lk, d, 0);
          kernels::DotProductGemm(gw.data(), kt, gq + q_offsets[s] * d, lq, d, lk,
                                  /*accumulate=*/true);
        }
        if (gk != nullptr) {
          const float* gst = kernels::TransposeScratch(gw.data(), lq, lk, 0);
          const float* qt = kernels::TransposeScratch(qs, lq, d, 1);
          kernels::DotProductGemm(gst, qt, gk, lk, d, lq, /*accumulate=*/true);
        }
      }
    };
  }
  return MakeOp({q.dim(0), dv}, std::move(out), std::move(parents),
                std::move(backward), "segment_attention");
}

namespace {

/// Shared softmax/log-softmax implementation over the last axis.
Tensor SoftmaxImpl(const Tensor& a, bool log_space) {
  TSPN_CHECK(a.rank() == 1 || a.rank() == 2);
  int64_t rows = a.rank() == 1 ? 1 : a.dim(0);
  int64_t cols = a.rank() == 1 ? a.dim(0) : a.dim(1);
  std::vector<float> out(static_cast<size_t>(rows * cols));
  const float* pa = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    SoftmaxRow(pa + r * cols, out.data() + r * cols, cols, log_space);
  }
  std::vector<float> saved;  // the output, kept only while a graph is recorded
  if (NoGradGuard::GradEnabled() && a.requires_grad()) saved = out;
  auto backward = [rows, cols, log_space, saved = std::move(saved)](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    for (int64_t r = 0; r < rows; ++r) {
      const float* y = saved.data() + r * cols;
      const float* g = node.grad.data() + r * cols;
      float* px = pg + r * cols;
      if (log_space) {
        // d log_softmax: dx = g - softmax * sum(g)
        double gsum = 0.0;
        for (int64_t c = 0; c < cols; ++c) gsum += g[c];
        for (int64_t c = 0; c < cols; ++c) {
          px[c] += g[c] - std::exp(y[c]) * static_cast<float>(gsum);
        }
      } else {
        // d softmax: dx = y * (g - sum(g*y))
        double dot = 0.0;
        for (int64_t c = 0; c < cols; ++c) dot += static_cast<double>(g[c]) * y[c];
        for (int64_t c = 0; c < cols; ++c) {
          px[c] += y[c] * (g[c] - static_cast<float>(dot));
        }
      }
    }
  };
  return MakeOp(a.shape(), std::move(out), {a}, backward,
                log_space ? "log_softmax" : "softmax");
}

}  // namespace

Tensor Softmax(const Tensor& a) { return SoftmaxImpl(a, /*log_space=*/false); }
Tensor LogSoftmax(const Tensor& a) { return SoftmaxImpl(a, /*log_space=*/true); }

Tensor L2Normalize(const Tensor& a, float eps) {
  TSPN_CHECK(a.rank() == 1 || a.rank() == 2);
  int64_t rows = a.rank() == 1 ? 1 : a.dim(0);
  int64_t cols = a.rank() == 1 ? a.dim(0) : a.dim(1);
  std::vector<float> out(static_cast<size_t>(rows * cols));
  // Row norms, kept for backward only while a graph is recorded.
  const bool track = NoGradGuard::GradEnabled() && a.requires_grad();
  std::vector<float> norms(static_cast<size_t>(track ? rows : 0));
  const float* pa = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* x = pa + r * cols;
    double sq = 0.0;
    for (int64_t c = 0; c < cols; ++c) sq += static_cast<double>(x[c]) * x[c];
    float norm = std::max(static_cast<float>(std::sqrt(sq)), eps);
    if (track) norms[static_cast<size_t>(r)] = norm;
    for (int64_t c = 0; c < cols; ++c) out[static_cast<size_t>(r * cols + c)] = x[c] / norm;
  }
  auto backward = [rows, cols, norms = std::move(norms)](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    for (int64_t r = 0; r < rows; ++r) {
      const float* x = parent->data.data() + r * cols;
      const float* g = node.grad.data() + r * cols;
      float* px = pg + r * cols;
      float norm = norms[static_cast<size_t>(r)];
      double dot = 0.0;  // g . x
      for (int64_t c = 0; c < cols; ++c) dot += static_cast<double>(g[c]) * x[c];
      float inv = 1.0f / norm;
      float inv3 = inv * inv * inv;
      for (int64_t c = 0; c < cols; ++c) {
        px[c] += g[c] * inv - static_cast<float>(dot) * x[c] * inv3;
      }
    }
  };
  return MakeOp(a.shape(), std::move(out), {a}, backward, "l2_normalize");
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps) {
  TSPN_CHECK(x.rank() == 1 || x.rank() == 2);
  int64_t rows = x.rank() == 1 ? 1 : x.dim(0);
  int64_t cols = x.rank() == 1 ? x.dim(0) : x.dim(1);
  TSPN_CHECK_EQ(gamma.numel(), cols);
  TSPN_CHECK_EQ(beta.numel(), cols);
  std::vector<float> out(static_cast<size_t>(rows * cols));
  // xhat and 1/std, kept for backward only while a graph is recorded.
  const bool track =
      NoGradGuard::GradEnabled() &&
      (x.requires_grad() || gamma.requires_grad() || beta.requires_grad());
  std::vector<float> xhat(static_cast<size_t>(track ? rows * cols : 0));
  std::vector<float> inv_std(static_cast<size_t>(track ? rows : 0));
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = px + r * cols;
    double mean = 0.0;
    for (int64_t c = 0; c < cols; ++c) mean += xr[c];
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      double d = xr[c] - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    float istd = 1.0f / static_cast<float>(std::sqrt(var + eps));
    if (track) inv_std[static_cast<size_t>(r)] = istd;
    for (int64_t c = 0; c < cols; ++c) {
      float h = (xr[c] - static_cast<float>(mean)) * istd;
      if (track) xhat[static_cast<size_t>(r * cols + c)] = h;
      out[static_cast<size_t>(r * cols + c)] = h * pg[c] + pb[c];
    }
  }
  auto backward = [rows, cols, xhat = std::move(xhat),
                   inv_std = std::move(inv_std)](TensorNode& node) {
    const auto& x_node = node.parents[0];
    const auto& g_node = node.parents[1];
    const auto& b_node = node.parents[2];
    const float* g = node.grad.data();
    const float* gamma = g_node->data.data();
    float* gg = GradPtr(g_node);
    float* gb = GradPtr(b_node);
    float* gx = GradPtr(x_node);
    for (int64_t r = 0; r < rows; ++r) {
      const float* gr = g + r * cols;
      const float* hr = xhat.data() + r * cols;
      float istd = inv_std[static_cast<size_t>(r)];
      if (gg != nullptr) {
        for (int64_t c = 0; c < cols; ++c) gg[c] += gr[c] * hr[c];
      }
      if (gb != nullptr) {
        for (int64_t c = 0; c < cols; ++c) gb[c] += gr[c];
      }
      if (gx != nullptr) {
        // dxhat = g * gamma; dx = (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)) * istd
        double sum_dh = 0.0, sum_dh_h = 0.0;
        for (int64_t c = 0; c < cols; ++c) {
          float dh = gr[c] * gamma[c];
          sum_dh += dh;
          sum_dh_h += static_cast<double>(dh) * hr[c];
        }
        float mean_dh = static_cast<float>(sum_dh / static_cast<double>(cols));
        float mean_dh_h = static_cast<float>(sum_dh_h / static_cast<double>(cols));
        float* gxr = gx + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
          float dh = gr[c] * gamma[c];
          gxr[c] += (dh - mean_dh - hr[c] * mean_dh_h) * istd;
        }
      }
    }
  };
  return MakeOp(x.shape(), std::move(out), {x, gamma, beta}, backward, "layer_norm");
}

Tensor Dropout(const Tensor& a, float p, common::Rng& rng, bool training) {
  if (!training || p <= 0.0f) return a;
  TSPN_CHECK_LT(p, 1.0f);
  float keep = 1.0f - p;
  std::vector<float> mask(static_cast<size_t>(a.numel()));
  for (float& m : mask) m = rng.Bernoulli(keep) ? 1.0f / keep : 0.0f;
  std::vector<float> out(static_cast<size_t>(a.numel()));
  const float* pa = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = pa[i] * mask[i];
  auto backward = [mask = std::move(mask)](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    const float* g = node.grad.data();
    const int64_t count = static_cast<int64_t>(node.grad.size());
    for (int64_t i = 0; i < count; ++i) pg[i] += g[i] * mask[static_cast<size_t>(i)];
  };
  return MakeOp(a.shape(), std::move(out), {a}, backward, "dropout");
}

Tensor EmbeddingGather(const Tensor& weight, const std::vector<int64_t>& indices) {
  TSPN_CHECK_EQ(weight.rank(), 2);
  int64_t v = weight.dim(0), d = weight.dim(1);
  int64_t l = static_cast<int64_t>(indices.size());
  std::vector<float> out(static_cast<size_t>(l * d));
  const float* pw = weight.data();
  for (int64_t i = 0; i < l; ++i) {
    int64_t idx = indices[static_cast<size_t>(i)];
    TSPN_CHECK_GE(idx, 0);
    TSPN_CHECK_LT(idx, v);
    std::memcpy(&out[static_cast<size_t>(i * d)], pw + idx * d,
                static_cast<size_t>(d) * sizeof(float));
  }
  auto backward = [indices, d](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    const float* g = node.grad.data();
    for (size_t i = 0; i < indices.size(); ++i) {
      float* prow = pg + indices[i] * d;
      const float* grow = g + i * static_cast<size_t>(d);
      for (int64_t j = 0; j < d; ++j) prow[j] += grow[j];
    }
  };
  return MakeOp({l, d}, std::move(out), {weight}, backward, "embedding_gather");
}

Tensor CrossEntropyWithLogits(const Tensor& logits, int64_t target) {
  TSPN_CHECK_EQ(logits.rank(), 1);
  TSPN_CHECK_GE(target, 0);
  TSPN_CHECK_LT(target, logits.dim(0));
  Tensor log_probs = LogSoftmax(logits);
  // Select the target entry via slice: reshape to [N,1] rows then SliceRows.
  Tensor as_rows = Reshape(log_probs, {logits.dim(0), 1});
  Tensor picked = SliceRows(as_rows, target, 1);
  return Neg(Reshape(picked, {1}));
}

Tensor ArcFaceLogits(const Tensor& cosines, int64_t target, float scale, float margin) {
  TSPN_CHECK_EQ(cosines.rank(), 1);
  int64_t n = cosines.dim(0);
  TSPN_CHECK_GE(target, 0);
  TSPN_CHECK_LT(target, n);
  const float cos_m = std::cos(margin);
  const float sin_m = std::sin(margin);
  std::vector<float> out(static_cast<size_t>(n));
  const float* pc = cosines.data();
  for (int64_t i = 0; i < n; ++i) {
    float c = std::clamp(pc[i], -1.0f, 1.0f);
    if (i == target) {
      float s = std::sqrt(std::max(0.0f, 1.0f - c * c));
      out[static_cast<size_t>(i)] = scale * (c * cos_m - s * sin_m);
    } else {
      out[static_cast<size_t>(i)] = scale * c;
    }
  }
  auto backward = [n, target, scale, cos_m, sin_m](TensorNode& node) {
    const auto& parent = node.parents[0];
    float* pg = GradPtr(parent);
    if (pg == nullptr) return;
    const float* g = node.grad.data();
    for (int64_t i = 0; i < n; ++i) {
      if (i == target) {
        float c = std::clamp(parent->data[static_cast<size_t>(i)], -1.0f, 1.0f);
        float s = std::sqrt(std::max(1e-6f, 1.0f - c * c));
        // d/dc [c*cos_m - sqrt(1-c^2)*sin_m] = cos_m + c/sqrt(1-c^2) * sin_m
        pg[i] += g[i] * scale * (cos_m + (c / s) * sin_m);
      } else {
        pg[i] += g[i] * scale;
      }
    }
  };
  return MakeOp({n}, std::move(out), {cosines}, backward, "arcface_logits");
}

}  // namespace tspn::nn
