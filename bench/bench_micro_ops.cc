// Micro-benchmarks of the nn kernel layer with before/after tracking.
//
// Each case times the seed implementation (kept verbatim below as the
// reference, namespace seedref) against the current library kernels and
// reports ns/op plus speedup, printing a table and writing
// BENCH_micro_ops.json for tools/run_benches.sh to diff against the
// committed baseline.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/hgat.h"
#include "graph/qrp_graph.h"
#include "nn/conv.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "rs/synthesizer.h"
#include "spatial/quadtree.h"

namespace {

using namespace tspn;

// --- Seed reference implementations -----------------------------------------
// Copied from the pre-kernel-rewrite src/nn/ops.cc so the speedup column
// keeps meaning after the originals are gone.

namespace seedref {

constexpr int kMaxRank = 4;

struct BroadcastPlan {
  nn::Shape out_shape;
  int64_t out_numel = 0;
  int rank = 0;
  int64_t out_dims[kMaxRank];
  int64_t a_strides[kMaxRank];
  int64_t b_strides[kMaxRank];
};

BroadcastPlan MakeBroadcastPlan(const nn::Shape& a, const nn::Shape& b) {
  BroadcastPlan plan;
  plan.rank = static_cast<int>(std::max(a.size(), b.size()));
  int64_t a_dims[kMaxRank], b_dims[kMaxRank];
  for (int i = 0; i < plan.rank; ++i) {
    int ai = static_cast<int>(a.size()) - plan.rank + i;
    int bi = static_cast<int>(b.size()) - plan.rank + i;
    a_dims[i] = ai >= 0 ? a[static_cast<size_t>(ai)] : 1;
    b_dims[i] = bi >= 0 ? b[static_cast<size_t>(bi)] : 1;
    plan.out_dims[i] = std::max(a_dims[i], b_dims[i]);
  }
  int64_t a_stride = 1, b_stride = 1;
  for (int i = plan.rank - 1; i >= 0; --i) {
    plan.a_strides[i] = (a_dims[i] == 1 && plan.out_dims[i] != 1) ? 0 : a_stride;
    plan.b_strides[i] = (b_dims[i] == 1 && plan.out_dims[i] != 1) ? 0 : b_stride;
    a_stride *= a_dims[i];
    b_stride *= b_dims[i];
  }
  plan.out_shape.assign(plan.out_dims, plan.out_dims + plan.rank);
  plan.out_numel = nn::NumElements(plan.out_shape);
  return plan;
}

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

nn::Tensor Add(const nn::Tensor& a, const nn::Tensor& b) {
  BroadcastPlan plan = MakeBroadcastPlan(a.shape(), b.shape());
  std::vector<float> out(static_cast<size_t>(plan.out_numel));
  const float* pa = a.data();
  const float* pb = b.data();
  ForEachBroadcast(plan, [&](int64_t o, int64_t i, int64_t j) {
    out[static_cast<size_t>(o)] = pa[i] + pb[j];
  });
  return nn::Tensor::FromVector(plan.out_shape, std::move(out));
}

nn::Tensor Mul(const nn::Tensor& a, const nn::Tensor& b) {
  BroadcastPlan plan = MakeBroadcastPlan(a.shape(), b.shape());
  std::vector<float> out(static_cast<size_t>(plan.out_numel));
  const float* pa = a.data();
  const float* pb = b.data();
  ForEachBroadcast(plan, [&](int64_t o, int64_t i, int64_t j) {
    out[static_cast<size_t>(o)] = pa[i] * pb[j];
  });
  return nn::Tensor::FromVector(plan.out_shape, std::move(out));
}

/// Seed UnaryOp: per-element dispatch through std::function.
nn::Tensor Unary(const nn::Tensor& a, std::function<float(float)> fn) {
  std::vector<float> out(static_cast<size_t>(a.numel()));
  const float* pa = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = fn(pa[i]);
  std::vector<float> saved = out;  // the seed always saved the output
  (void)saved;
  return nn::Tensor::FromVector(a.shape(), std::move(out));
}

nn::Tensor Reshape(const nn::Tensor& a, const nn::Shape& shape) {
  return nn::Tensor::FromVector(shape, a.ToVector());
}

nn::Tensor MatMul(const nn::Tensor& a, const nn::Tensor& b) {
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* orow = out.data() + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return nn::Tensor::FromVector({m, n}, std::move(out));
}

/// Seed MatMul backward: dA via scalar-accumulator dots, dB via saxpy.
void MatMulBackward(const float* av, const float* bv, const float* g, float* ga,
                    float* gb, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      float acc = 0.0f;
      const float* grow = g + i * n;
      const float* brow = bv + kk * n;
      for (int64_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
      ga[i * k + kk] += acc;
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t i = 0; i < m; ++i) {
      float a_ik = av[i * k + kk];
      if (a_ik == 0.0f) continue;
      const float* grow = g + i * n;
      float* brow = gb + kk * n;
      for (int64_t j = 0; j < n; ++j) brow[j] += a_ik * grow[j];
    }
  }
}

/// Seed Conv2d forward: the 7-deep scalar loop from the pre-im2col conv.cc.
void Conv2dForward(const float* px, const float* pw, float* out, int64_t n,
                   int64_t ic, int64_t h, int64_t w, int64_t oc, int64_t kh,
                   int64_t kw, int64_t oh, int64_t ow, int stride,
                   int padding) {
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t o = 0; o < oc; ++o) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          const int64_t iy0 = oy * stride - padding;
          const int64_t ix0 = ox * stride - padding;
          for (int64_t c = 0; c < ic; ++c) {
            const float* xplane = px + ((b * ic + c) * h) * w;
            const float* wplane = pw + ((o * ic + c) * kh) * kw;
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= w) continue;
                acc += xplane[iy * w + ix] * wplane[ky * kw + kx];
              }
            }
          }
          out[((b * oc + o) * oh + oy) * ow + ox] = acc;
        }
      }
    }
  }
}

/// Seed Conv2d backward (dW and dX, no bias): scalar scatter loops.
void Conv2dBackward(const float* g, const float* xv, const float* wv, float* gw,
                    float* gx, int64_t n, int64_t ic, int64_t h, int64_t w,
                    int64_t oc, int64_t kh, int64_t kw, int64_t oh, int64_t ow,
                    int stride, int padding) {
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t o = 0; o < oc; ++o) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float go = g[((b * oc + o) * oh + oy) * ow + ox];
          if (go == 0.0f) continue;
          const int64_t iy0 = oy * stride - padding;
          const int64_t ix0 = ox * stride - padding;
          for (int64_t c = 0; c < ic; ++c) {
            const int64_t xbase = ((b * ic + c) * h) * w;
            const int64_t wbase = ((o * ic + c) * kh) * kw;
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= w) continue;
                gw[wbase + ky * kw + kx] += go * xv[xbase + iy * w + ix];
                gx[xbase + iy * w + ix] += go * wv[wbase + ky * kw + kx];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace seedref

// --- Harness -----------------------------------------------------------------

/// Runs fn repeatedly for ~TSPN_BENCH_MICRO_MS milliseconds (default 150)
/// and returns ns per call.
double TimeNs(const std::function<void()>& fn) {
  static const double budget_ms =
      static_cast<double>(common::EnvInt("TSPN_BENCH_MICRO_MS", 150));
  fn();  // warmup
  int64_t iters = 0;
  auto start = std::chrono::steady_clock::now();
  double elapsed_ns = 0.0;
  while (true) {
    fn();
    ++iters;
    elapsed_ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    if (elapsed_ns >= budget_ms * 1e6 && iters >= 3) break;
  }
  return elapsed_ns / static_cast<double>(iters);
}

struct Case {
  std::string name;
  std::function<void()> before;
  std::function<void()> after;
};

}  // namespace

int main() {
  using nn::Tensor;
  common::Rng rng(17);
  std::printf("Micro-benchmarks: seed reference kernels vs current nn layer\n");

  // Elementwise operands: 256x256 (64k elements).
  const Tensor ew_a = Tensor::RandomUniform({256, 256}, 1.0f, rng);
  const Tensor ew_b = Tensor::RandomUniform({256, 256}, 1.0f, rng);
  const Tensor ew_row = Tensor::RandomUniform({256}, 1.0f, rng);
  const Tensor ew_scalar = Tensor::Scalar(1.5f);

  std::vector<Case> cases;
  cases.push_back({"add_same_shape",
                   [&] { seedref::Add(ew_a, ew_b); },
                   [&] { nn::Add(ew_a, ew_b); }});
  cases.push_back({"mul_same_shape",
                   [&] { seedref::Mul(ew_a, ew_b); },
                   [&] { nn::Mul(ew_a, ew_b); }});
  cases.push_back({"mul_scalar_broadcast",
                   [&] { seedref::Mul(ew_a, ew_scalar); },
                   [&] { nn::Mul(ew_a, ew_scalar); }});
  cases.push_back({"add_row_broadcast",
                   [&] { seedref::Add(ew_a, ew_row); },
                   [&] { nn::Add(ew_a, ew_row); }});
  cases.push_back({"sigmoid",
                   [&] {
                     seedref::Unary(
                         ew_a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
                   },
                   [&] { nn::Sigmoid(ew_a); }});
  cases.push_back({"reshape",
                   [&] { seedref::Reshape(ew_a, {65536}); },
                   [&] { nn::Reshape(ew_a, {65536}); }});

  for (int64_t n : {64, 128, 256}) {
    Tensor ma = Tensor::RandomUniform({n, n}, 1.0f, rng);
    Tensor mb = Tensor::RandomUniform({n, n}, 1.0f, rng);
    cases.push_back({"matmul_fwd_" + std::to_string(n),
                     [ma, mb] { seedref::MatMul(ma, mb); },
                     [ma, mb] { nn::MatMul(ma, mb); }});
  }

  // The training-path op: forward + both backward passes. This is the
  // MatMul cost that bounds training throughput.
  for (int64_t n : {128, 256}) {
    Tensor ma = Tensor::RandomUniform({n, n}, 1.0f, rng);
    Tensor mb = Tensor::RandomUniform({n, n}, 1.0f, rng);
    Tensor ga = Tensor::RandomUniform({n, n}, 1.0f, rng, /*requires_grad=*/true);
    Tensor gb = Tensor::RandomUniform({n, n}, 1.0f, rng, /*requires_grad=*/true);
    cases.push_back(
        {"matmul_" + std::to_string(n),
         [ma, mb, n] {
           Tensor y = seedref::MatMul(ma, mb);
           std::vector<float> grad_a(static_cast<size_t>(n * n), 0.0f);
           std::vector<float> grad_b(static_cast<size_t>(n * n), 0.0f);
           std::vector<float> g(static_cast<size_t>(n * n), 1.0f);
           seedref::MatMulBackward(ma.data(), mb.data(), g.data(), grad_a.data(),
                                   grad_b.data(), n, n, n);
         },
         [ga, gb]() mutable {
           Tensor y = nn::MatMul(ga, gb);
           auto& node = *y.node();
           node.EnsureGrad();
           std::fill(node.grad.begin(), node.grad.end(), 1.0f);
           node.backward(node);
           ga.ZeroGrad();
           gb.ZeroGrad();
         }});
  }

  // Conv2d: seed 7-deep scalar loops vs the im2col + DotProductGemm lowering.
  // Shapes mirror the model's tile-image CNN (conv_channels {8, 16, 32}, all
  // stride 2): the 3->8 ingest conv on a 64x64 RGB tile (forward, the
  // inference-cache path) and a training step on the 8->16 mid layer
  // (forward + dW/dX backward), whose K = 8*3*3 = 72 reduction is where the
  // CNN's training time actually goes.
  {
    const Tensor cfx = Tensor::RandomUniform({1, 3, 64, 64}, 1.0f, rng);
    const Tensor cfw = Tensor::RandomUniform({8, 3, 3, 3}, 0.2f, rng);
    cases.push_back(
        {"conv2d_stride2_64",
         [cfx, cfw] {
           std::vector<float> out(static_cast<size_t>(1 * 8 * 32 * 32));
           seedref::Conv2dForward(cfx.data(), cfw.data(), out.data(), 1, 3, 64,
                                  64, 8, 3, 3, 32, 32, /*stride=*/2,
                                  /*padding=*/1);
         },
         [cfx, cfw] {
           nn::NoGradGuard guard;
           nn::Conv2d(cfx, cfw, nn::Tensor(), 2, 1);
         }});

    const Tensor ctx = Tensor::RandomUniform({2, 8, 32, 32}, 1.0f, rng);
    const Tensor ctw = Tensor::RandomUniform({16, 8, 3, 3}, 0.2f, rng);
    Tensor gx_t =
        Tensor::RandomUniform({2, 8, 32, 32}, 1.0f, rng, /*requires_grad=*/true);
    Tensor gw_t =
        Tensor::RandomUniform({16, 8, 3, 3}, 0.2f, rng, /*requires_grad=*/true);
    cases.push_back(
        {"conv2d_train_8to16_32",
         [ctx, ctw] {
           std::vector<float> out(static_cast<size_t>(2 * 16 * 16 * 16));
           seedref::Conv2dForward(ctx.data(), ctw.data(), out.data(), 2, 8, 32,
                                  32, 16, 3, 3, 16, 16, /*stride=*/2,
                                  /*padding=*/1);
           std::vector<float> g(out.size(), 1.0f);
           std::vector<float> gw(static_cast<size_t>(ctw.numel()), 0.0f);
           std::vector<float> gx(static_cast<size_t>(ctx.numel()), 0.0f);
           seedref::Conv2dBackward(g.data(), ctx.data(), ctw.data(), gw.data(),
                                   gx.data(), 2, 8, 32, 32, 16, 3, 3, 16, 16,
                                   /*stride=*/2, /*padding=*/1);
         },
         [gx_t, gw_t]() mutable {
           Tensor y = nn::Conv2d(gx_t, gw_t, nn::Tensor(), 2, 1);
           auto& node = *y.node();
           node.EnsureGrad();
           std::fill(node.grad.begin(), node.grad.end(), 1.0f);
           node.backward(node);
           gx_t.ZeroGrad();
           gw_t.ZeroGrad();
         }});
  }

  bench::JsonReporter reporter("micro_ops");
  common::TablePrinter table({"Op", "Seed ns/op", "Now ns/op", "Speedup"});
  for (const Case& c : cases) {
    double before = TimeNs(c.before);
    double after = TimeNs(c.after);
    double speedup = before / after;
    char before_s[32], after_s[32], speedup_s[32];
    std::snprintf(before_s, sizeof(before_s), "%.0f", before);
    std::snprintf(after_s, sizeof(after_s), "%.0f", after);
    std::snprintf(speedup_s, sizeof(speedup_s), "%.2fx", speedup);
    table.AddRow({c.name, before_s, after_s, speedup_s});
    reporter.Add(c.name, {{"ns_per_op", after},
                          {"ns_per_op_before", before},
                          {"speedup", speedup}});
  }

  // Substrate throughput tracking without a seed reference: these paths are
  // unchanged by the kernel rewrite (attention, spatial/graph/imagery) but
  // stay in the JSON so run_benches.sh catches future regressions. (Conv2d
  // graduated to the before/after table with the im2col lowering.)
  {
    auto tiny = data::CityDataset::Generate(data::CityProfile::TestTiny());
    nn::Attention attn(64, rng);
    Tensor seq = Tensor::RandomUniform({32, 64}, 1.0f, rng);
    // A packed fusion-sized attention: 32 causal segments of 8 rows at the
    // model's default dm 32, already projected.
    const int64_t seg_rows = 8, segs = 32, seg_dm = 32;
    std::vector<int64_t> seg_offsets;
    for (int64_t s = 0; s <= segs; ++s) seg_offsets.push_back(s * seg_rows);
    Tensor seg_q = Tensor::RandomUniform({segs * seg_rows, seg_dm}, 1.0f, rng);
    Tensor seg_k = Tensor::RandomUniform({segs * seg_rows, seg_dm}, 1.0f, rng);
    Tensor seg_v = Tensor::RandomUniform({segs * seg_rows, seg_dm}, 1.0f, rng);
    const float seg_scale = 1.0f / std::sqrt(static_cast<float>(seg_dm));
    std::vector<geo::GeoPoint> points;
    for (int64_t i = 0; i < 10000; ++i) points.push_back({rng.Uniform(), rng.Uniform()});
    std::vector<int64_t> visits;
    for (int i = 0; i < 100; ++i) {
      visits.push_back(rng.UniformInt(static_cast<int64_t>(tiny->pois().size())));
    }
    rs::ImageSynthesizer synth(&tiny->layout(), &tiny->roads(), {.resolution = 32});
    // HGAT (Sec. IV-C) at the model defaults (dm 32, 2 layers) on the same
    // 100-visit QR-P graph: serving encode, and a training forward+backward.
    const graph::QrpGraph qrp = graph::BuildQrpGraph(
        tiny->quadtree(), tiny->leaf_adjacency(), tiny->pois(), visits);
    core::TspnRaConfig hgat_config;
    hgat_config.dm = 32;
    hgat_config.num_hgat_layers = 2;
    core::QrpEncoder qrp_encoder(hgat_config, rng);
    Tensor tile_init = Tensor::RandomUniform({qrp.NumTileNodes(), 32}, 1.0f, rng, true);
    Tensor poi_init = Tensor::RandomUniform({qrp.NumPoiNodes(), 32}, 1.0f, rng, true);
    std::vector<Case> tracked;
    // One 32-row causal segment at dim 64: the three projections plus
    // nn::SegmentAttention.
    tracked.push_back({"attention_fwd_32x64", {}, [&] {
                         nn::NoGradGuard guard;
                         attn.Forward(seq, seq, true);
                       }});
    tracked.push_back({"segment_attention_fwd_32x8", {}, [&] {
                         nn::NoGradGuard guard;
                         nn::SegmentAttention(seg_q, {seg_k}, {seg_v}, seg_offsets,
                                              seg_offsets, /*causal=*/true,
                                              seg_scale);
                       }});
    tracked.push_back({"quadtree_build_10k", {}, [&] {
                         spatial::QuadTree::Build({0, 0, 1, 1}, points,
                                                  {.max_depth = 9, .leaf_capacity = 50});
                       }});
    tracked.push_back({"qrp_graph_build_100", {}, [&] {
                         graph::BuildQrpGraph(tiny->quadtree(), tiny->leaf_adjacency(),
                                              tiny->pois(), visits);
                       }});
    tracked.push_back({"hgat_encode_100", {}, [&] {
                         nn::NoGradGuard guard;
                         qrp_encoder.Encode(qrp, tile_init, poi_init);
                       }});
    tracked.push_back({"hgat_train_100", {}, [&] {
                         auto out = qrp_encoder.Encode(qrp, tile_init, poi_init);
                         nn::Add(nn::SumAll(out.tile_knowledge),
                                 nn::SumAll(out.poi_knowledge))
                             .Backward();
                       }});
    tracked.push_back({"render_tile_32", {}, [&] {
                         synth.RenderTile({0.0, 0.0, 0.1, 0.1});
                       }});
    common::TablePrinter tracked_table({"Substrate", "ns/op"});
    for (const Case& c : tracked) {
      double ns = TimeNs(c.after);
      char ns_s[32];
      std::snprintf(ns_s, sizeof(ns_s), "%.0f", ns);
      tracked_table.AddRow({c.name, ns_s});
      reporter.Add(c.name, {{"ns_per_op", ns}});
    }
    // nn::Linear at the fusion's shape (16 rows at dm 32, with bias): the
    // one nn::Affine op, timed next to the MatMul(x, Transpose(W)) + Add(b)
    // chain it replaced. The train rows run forward + backward. Each row
    // records the core count it ran on.
    nn::Linear linear(32, 32, rng);
    Tensor lin_x = Tensor::RandomUniform({16, 32}, 1.0f, rng, /*requires_grad=*/true);
    auto composed = [&] {
      return nn::Add(nn::MatMul(lin_x, nn::Transpose(linear.weight())),
                     linear.bias());
    };
    auto train = [&](const std::function<Tensor()>& forward) {
      nn::SumAll(forward()).Backward();
      lin_x.ZeroGrad();
      for (Tensor p : linear.Parameters()) p.ZeroGrad();
    };
    struct LinearCase {
      const char* name;
      std::function<void()> op, composed_op;
    };
    const LinearCase linear_cases[] = {
        {"linear_fwd_16x32",
         [&] {
           nn::NoGradGuard guard;
           linear.Forward(lin_x);
         },
         [&] {
           nn::NoGradGuard guard;
           composed();
         }},
        {"linear_train_16x32", [&] { train([&] { return linear.Forward(lin_x); }); },
         [&] { train(composed); }},
    };
    const double nproc = static_cast<double>(std::thread::hardware_concurrency());
    for (const LinearCase& c : linear_cases) {
      const double ns = TimeNs(c.op);
      const double composed_ns = TimeNs(c.composed_op);
      char ns_s[64];
      std::snprintf(ns_s, sizeof(ns_s), "%.0f (composed %.0f)", ns, composed_ns);
      tracked_table.AddRow({c.name, ns_s});
      reporter.Add(c.name, {{"ns_per_op", ns},
                            {"ns_per_op_composed", composed_ns},
                            {"nproc", nproc}});
    }
    table.Print();
    tracked_table.Print();
  }
  reporter.Write();
  return 0;
}
