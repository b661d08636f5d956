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
/// reduction runs on 8-wide FMA accumulators when compiled with AVX2 and
/// FMA (a portable scalar loop otherwise), and a 4x4 register tile
/// amortizes each operand load across four partial products. The tile
/// reduces its 16 accumulators four at a time (add each one's 128-bit
/// halves, then two `hadd` levels across four of them): per element that
/// is the addition tree of a one-accumulator reduction, so every element
/// keeps its bits. Blocking over q keeps the active Z rows in L1.
///
/// With `accumulate` false C is overwritten, otherwise the products are
/// added into C (the gradient-accumulation mode).
///
/// Rows are independent: each output row is bitwise what a 1-row call on
/// that Y row gives, whatever p_rows is. Batched inference relies on this
/// to match the per-query path exactly.
void DotProductGemm(const float* y, const float* z, float* c, int64_t p_rows,
                    int64_t q_rows, int64_t r_len, bool accumulate);

/// One element of DotProductGemm: sum_r y[r] * z[r] over one Y row and one
/// Z row, bitwise what DotProductGemm writes for that pair whatever the
/// shape of the call. Scores a few rows of a large Z without the rest.
float DotRow(const float* y, const float* z, int64_t r_len);

/// Row-major transpose into a fresh buffer: src [rows, cols] -> [cols, rows].
/// O(rows*cols); used to feed DotProductGemm operands that are needed
/// column-major (B in the forward pass, A and dOut in the dB pass).
std::vector<float> TransposeCopy(const float* src, int64_t rows, int64_t cols);

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
