#ifndef TSPN_NN_KERNELS_H_
#define TSPN_NN_KERNELS_H_

#include <cstdint>
#include <vector>

namespace tspn::nn::kernels {

/// Threads one kernel call runs on: always 1. Every kernel runs on its
/// calling thread; serving parallelism comes from the InferenceEngine
/// workers, the one pool that owns the cores. Kept for callers that report
/// the kernel thread count.
int NumThreads();

/// The one matrix kernel behind MatMul forward and both backward passes:
///
///   C[p, q] (+)= sum_r Y[p, r] * Z[q, r]       i.e.  C = Y * Z^T
///
/// with Y [p_rows, r_len], Z [q_rows, r_len] and C [p_rows, q_rows], all
/// row-major and dense. Rows of both operands are contiguous, so the inner
/// reduction runs on SIMD FMA accumulators (AVX2/AVX-512 when compiled in),
/// and a 4x4 register tile amortizes each operand load across four partial
/// products. Blocking over q keeps the active Z rows in L1.
///
/// With `accumulate` false C is overwritten, otherwise the products are
/// added into C (the gradient-accumulation mode).
void DotProductGemm(const float* y, const float* z, float* c, int64_t p_rows,
                    int64_t q_rows, int64_t r_len, bool accumulate);

/// Row-major transpose into a fresh buffer: src [rows, cols] -> [cols, rows].
/// O(rows*cols); used to feed DotProductGemm operands that are needed
/// column-major (B in the forward pass, A and dOut in the dB pass).
std::vector<float> TransposeCopy(const float* src, int64_t rows, int64_t cols);

/// Symmetric per-row int8 quantization: codes[i, :] = round(src[i, :] / s_i)
/// with s_i = max|src[i, :]| / 127 written to scales[i]. An all-zero row gets
/// scale 0 and all-zero codes. `codes` holds rows*cols int8, `scales` rows
/// floats. Round-half-away-from-zero, so the mapping is deterministic and
/// the codes stay in [-127, 127].
void QuantizeRowsInt8(const float* src, int64_t rows, int64_t cols,
                      int8_t* codes, float* scales);

/// Exact int8 dot product: sum_r y[r] * z[r] accumulated in int32.
int32_t Int8Dot(const int8_t* y, const int8_t* z, int64_t r_len);

/// The int8 scoring GEMM behind TSPN_QUANT_SCORING:
///
///   C[p, q] = float(sum_r Yq[p, r] * Zq[q, r]) * (y_scales[p] * z_scales[q])
///
/// with Yq [p_rows, r_len] and Zq [q_rows, r_len] int8 codes from
/// QuantizeRowsInt8. The integer accumulation is exact, so — unlike the fp32
/// kernel — the result is independent of blocking and vectorization; a
/// single Int8Dot per element reproduces it bitwise.
void Int8ScoreGemm(const int8_t* y, const float* y_scales, const int8_t* z,
                   const float* z_scales, float* c, int64_t p_rows,
                   int64_t q_rows, int64_t r_len);

/// Transpose into a reusable per-thread scratch buffer instead of a fresh
/// heap allocation: at the small sizes that dominate this model (64-128) the
/// malloc + free around every matmul is a first-order cost. `slot` selects
/// one of two independent buffers per thread so a caller may hold two
/// transposed operands at once (the dB pass needs A^T and dOut^T together).
/// The returned pointer is valid until the same slot is requested again on
/// the calling thread; buffers only ever grow.
const float* TransposeScratch(const float* src, int64_t rows, int64_t cols,
                              int slot);

}  // namespace tspn::nn::kernels

#endif  // TSPN_NN_KERNELS_H_
