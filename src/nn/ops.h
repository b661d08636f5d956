#ifndef TSPN_NN_OPS_H_
#define TSPN_NN_OPS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace tspn::nn {

// ---------------------------------------------------------------------------
// Elementwise binary ops with NumPy-style broadcasting (any ranks <= 4).
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Scalar / unary ops.
// ---------------------------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  ///< natural log; input must be positive
Tensor Sqrt(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);
Tensor Elu(const Tensor& a, float alpha = 1.0f);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

// ---------------------------------------------------------------------------
// Shape ops.
// ---------------------------------------------------------------------------

/// Reshape preserving element count. The result is an aliasing view: it
/// shares the input's storage (no copy), so in-place writes through either
/// tensor are visible in both.
Tensor Reshape(const Tensor& a, const Shape& shape);

/// 2-D transpose: [M, N] -> [N, M].
Tensor Transpose(const Tensor& a);

/// Concatenation along axis 0 of same-rank tensors. A single part is
/// returned as is (the result aliases it, like Reshape).
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Concatenation along the last axis of rank-1 or rank-2 tensors.
Tensor ConcatLast(const std::vector<Tensor>& parts);

/// Stacks L rank-1 tensors of size D into [L, D].
Tensor StackRows(const std::vector<Tensor>& rows);

/// Slice of rows [start, start+length) of a rank-2 tensor. Asked for all
/// rows, it returns the input as is (the result aliases it, like
/// ConcatRows of one part).
Tensor SliceRows(const Tensor& a, int64_t start, int64_t length);

/// Single row of a rank-2 tensor as a rank-1 tensor.
Tensor Row(const Tensor& a, int64_t index);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

Tensor SumAll(const Tensor& a);   ///< scalar sum of all elements
Tensor MeanAll(const Tensor& a);  ///< scalar mean of all elements
Tensor MeanRows(const Tensor& a); ///< [N, D] -> [D], mean over rows
Tensor SumRows(const Tensor& a);  ///< [N, D] -> [D], sum over rows

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// Matrix product of [M, K] x [K, N] -> [M, N].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Affine map x W^T + b: x [M, K], weight [N, K] (one row per output),
/// bias [N] or undefined for none -> [M, N]. One op: the GEMM reads W's
/// rows as stored, with no transpose node, and the bias add is fused.
/// Values and gradients of x, weight and bias are bitwise those of
/// Add(MatMul(x, Transpose(weight)), bias): every element is the same
/// DotProductGemm dot product or the same row-by-row bias sum.
Tensor Affine(const Tensor& x, const Tensor& weight, const Tensor& bias);

/// [N, D] x [D] -> [N].
Tensor MatVec(const Tensor& a, const Tensor& v);

/// Dot product of two rank-1 tensors -> scalar.
Tensor Dot(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Graph attention.
// ---------------------------------------------------------------------------

/// GAT attention over a CSR neighbour list (Velickovic et al., ICLR'18).
/// Node i's neighbours are cols[offsets[i] .. offsets[i + 1]); for each,
///   alpha_ij = softmax_j(LeakyReLU(a_src . hk_i + a_dst . hk_j)),
///   out_i    = sum_j alpha_ij hk_j.
/// The softmax runs over real neighbours only, and a row without neighbours
/// outputs zeros. hk: [n, d]; a_src, a_dst: [d]; offsets: n + 1 entries.
/// Returns [n, d], differentiable in hk, a_src and a_dst.
Tensor SparseGraphAttention(const Tensor& hk, const Tensor& a_src,
                            const Tensor& a_dst,
                            const std::vector<int32_t>& offsets,
                            const std::vector<int32_t>& cols,
                            float negative_slope = 0.2f);

// ---------------------------------------------------------------------------
// Sequence attention.
// ---------------------------------------------------------------------------

/// Scaled dot-product attention over a pack of B segments:
///   out_s = softmax(q_s k_s^T * scale) v_s
/// per segment s, where q_s is rows [q_offsets[s], q_offsets[s + 1]) of q
/// and k_s, v_s are rows [k_offsets[s], k_offsets[s + 1]) of K and V.
/// K and V are given as parts, read in place: K is k_parts concatenated
/// row-wise (V likewise, part for part), and every segment with keys lies
/// inside one part. Self-attention passes one packed part; a batch whose
/// segments attend to separately stored keys (cached per-history K/V)
/// passes each segment's own tensors, with no copy into a pack. With
/// `causal`, query i of a segment with lq queries over lk keys sees only
/// keys j <= i + (lk - lq): lq == lk is the usual triangle, and lq == 1 is
/// the segment's last position, which sees every key. q: [*, d]; each K
/// part [*, d] and its V part [same rows, dv]; both offset lists have B + 1
/// entries, and every segment with a query has a key (causal also needs
/// lq <= lk). Returns [q.dim(0), dv], differentiable in q and every part.
///
/// Row i of out_s depends only on query row i and its segment's keys and
/// values, never on the rest of the pack or on how K/V is split into parts.
/// Values and gradients are bitwise those of the composed MatMul /
/// MulScalar / -1e9-mask Add / Softmax / MatMul chain on each segment
/// alone: masked keys get a weight of exactly zero, and every product runs
/// through the same DotProductGemm calls.
Tensor SegmentAttention(const Tensor& q, const std::vector<Tensor>& k_parts,
                        const std::vector<Tensor>& v_parts,
                        const std::vector<int64_t>& q_offsets,
                        const std::vector<int64_t>& k_offsets, bool causal,
                        float scale);

// ---------------------------------------------------------------------------
// Normalization / probability.
// ---------------------------------------------------------------------------

/// Softmax over the last axis of a rank-1 or rank-2 tensor.
Tensor Softmax(const Tensor& a);

/// Log-softmax over the last axis (numerically stable).
Tensor LogSoftmax(const Tensor& a);

/// Rows scaled to unit L2 norm: x / max(|x|, eps). Works on rank-1 (the
/// whole vector) and rank-2 (each row).
Tensor L2Normalize(const Tensor& a, float eps = 1e-8f);

/// Layer normalization over the last axis with affine parameters.
/// gamma/beta have shape [D] where D is the last axis extent.
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

/// Inverted dropout. Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, common::Rng& rng, bool training);

// ---------------------------------------------------------------------------
// Embedding / gather.
// ---------------------------------------------------------------------------

/// Gathers rows of `weight` ([V, D]) at `indices` -> [L, D]. Gradient is
/// scatter-added into the embedding matrix.
Tensor EmbeddingGather(const Tensor& weight, const std::vector<int64_t>& indices);

// ---------------------------------------------------------------------------
// Losses / classification heads.
// ---------------------------------------------------------------------------

/// -log softmax(logits)[target] for a rank-1 logits vector.
Tensor CrossEntropyWithLogits(const Tensor& logits, int64_t target);

/// ArcFace-style margin injection (Deng et al., CVPR'19; Eq. 8 of the paper).
/// Given cosines [N] between an output vector and N candidate embeddings,
/// produces logits where the target entry is s*cos(theta_t + m) and all other
/// entries are s*cos(theta_j).
Tensor ArcFaceLogits(const Tensor& cosines, int64_t target, float scale, float margin);

}  // namespace tspn::nn

#endif  // TSPN_NN_OPS_H_
