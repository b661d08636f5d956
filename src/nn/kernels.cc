#include "nn/kernels.h"

#include <algorithm>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define TSPN_KERNELS_AVX2 1
#endif

namespace tspn::nn::kernels {

namespace {

// Z rows kept hot in L1 per stripe: kBlockQ * r_len floats. 64 rows of a
// 64-wide operand is 16 KB, half a typical L1d.
constexpr int64_t kBlockQ = 64;

#ifdef TSPN_KERNELS_AVX2

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

/// HorizontalSum of four accumulators at once, lane j holding a_j's sum.
/// It is the same addition tree per accumulator: its two halves are added,
/// then the first hadd adds neighbouring lanes and the second adds those
/// pair sums. So every lane is bitwise HorizontalSum(a_j).
inline __m128 HorizontalSum4(__m256 a0, __m256 a1, __m256 a2, __m256 a3) {
  const __m128 s0 =
      _mm_add_ps(_mm256_castps256_ps128(a0), _mm256_extractf128_ps(a0, 1));
  const __m128 s1 =
      _mm_add_ps(_mm256_castps256_ps128(a1), _mm256_extractf128_ps(a1, 1));
  const __m128 s2 =
      _mm_add_ps(_mm256_castps256_ps128(a2), _mm256_extractf128_ps(a2, 1));
  const __m128 s3 =
      _mm_add_ps(_mm256_castps256_ps128(a3), _mm256_extractf128_ps(a3, 1));
  return _mm_hadd_ps(_mm_hadd_ps(s0, s1), _mm_hadd_ps(s2, s3));
}

/// 4x4 register tile: 16 vector accumulators, each operand load shared by
/// four FMAs. The r loop is unrolled x2 to thin out loop overhead.
inline void DotTile4x4(const float* y0, const float* y1, const float* y2,
                       const float* y3, const float* z0, const float* z1,
                       const float* z2, const float* z3, int64_t r_len,
                       float out[4][4]) {
  __m256 a00 = _mm256_setzero_ps(), a01 = a00, a02 = a00, a03 = a00;
  __m256 a10 = a00, a11 = a00, a12 = a00, a13 = a00;
  __m256 a20 = a00, a21 = a00, a22 = a00, a23 = a00;
  __m256 a30 = a00, a31 = a00, a32 = a00, a33 = a00;
  int64_t r = 0;
  for (; r + 16 <= r_len; r += 16) {
    for (int64_t half = r; half < r + 16; half += 8) {
      __m256 w0 = _mm256_loadu_ps(z0 + half);
      __m256 w1 = _mm256_loadu_ps(z1 + half);
      __m256 w2 = _mm256_loadu_ps(z2 + half);
      __m256 w3 = _mm256_loadu_ps(z3 + half);
      __m256 v = _mm256_loadu_ps(y0 + half);
      a00 = _mm256_fmadd_ps(v, w0, a00);
      a01 = _mm256_fmadd_ps(v, w1, a01);
      a02 = _mm256_fmadd_ps(v, w2, a02);
      a03 = _mm256_fmadd_ps(v, w3, a03);
      v = _mm256_loadu_ps(y1 + half);
      a10 = _mm256_fmadd_ps(v, w0, a10);
      a11 = _mm256_fmadd_ps(v, w1, a11);
      a12 = _mm256_fmadd_ps(v, w2, a12);
      a13 = _mm256_fmadd_ps(v, w3, a13);
      v = _mm256_loadu_ps(y2 + half);
      a20 = _mm256_fmadd_ps(v, w0, a20);
      a21 = _mm256_fmadd_ps(v, w1, a21);
      a22 = _mm256_fmadd_ps(v, w2, a22);
      a23 = _mm256_fmadd_ps(v, w3, a23);
      v = _mm256_loadu_ps(y3 + half);
      a30 = _mm256_fmadd_ps(v, w0, a30);
      a31 = _mm256_fmadd_ps(v, w1, a31);
      a32 = _mm256_fmadd_ps(v, w2, a32);
      a33 = _mm256_fmadd_ps(v, w3, a33);
    }
  }
  for (; r + 8 <= r_len; r += 8) {
    __m256 w0 = _mm256_loadu_ps(z0 + r);
    __m256 w1 = _mm256_loadu_ps(z1 + r);
    __m256 w2 = _mm256_loadu_ps(z2 + r);
    __m256 w3 = _mm256_loadu_ps(z3 + r);
    __m256 v = _mm256_loadu_ps(y0 + r);
    a00 = _mm256_fmadd_ps(v, w0, a00);
    a01 = _mm256_fmadd_ps(v, w1, a01);
    a02 = _mm256_fmadd_ps(v, w2, a02);
    a03 = _mm256_fmadd_ps(v, w3, a03);
    v = _mm256_loadu_ps(y1 + r);
    a10 = _mm256_fmadd_ps(v, w0, a10);
    a11 = _mm256_fmadd_ps(v, w1, a11);
    a12 = _mm256_fmadd_ps(v, w2, a12);
    a13 = _mm256_fmadd_ps(v, w3, a13);
    v = _mm256_loadu_ps(y2 + r);
    a20 = _mm256_fmadd_ps(v, w0, a20);
    a21 = _mm256_fmadd_ps(v, w1, a21);
    a22 = _mm256_fmadd_ps(v, w2, a22);
    a23 = _mm256_fmadd_ps(v, w3, a23);
    v = _mm256_loadu_ps(y3 + r);
    a30 = _mm256_fmadd_ps(v, w0, a30);
    a31 = _mm256_fmadd_ps(v, w1, a31);
    a32 = _mm256_fmadd_ps(v, w2, a32);
    a33 = _mm256_fmadd_ps(v, w3, a33);
  }
  _mm_storeu_ps(out[0], HorizontalSum4(a00, a01, a02, a03));
  _mm_storeu_ps(out[1], HorizontalSum4(a10, a11, a12, a13));
  _mm_storeu_ps(out[2], HorizontalSum4(a20, a21, a22, a23));
  _mm_storeu_ps(out[3], HorizontalSum4(a30, a31, a32, a33));
  for (; r < r_len; ++r) {
    const float w[4] = {z0[r], z1[r], z2[r], z3[r]};
    const float v[4] = {y0[r], y1[r], y2[r], y3[r]};
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) out[i][j] += v[i] * w[j];
    }
  }
}

inline float DotRowInline(const float* y, const float* z, int64_t r_len) {
  __m256 acc = _mm256_setzero_ps();
  int64_t r = 0;
  for (; r + 8 <= r_len; r += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(y + r), _mm256_loadu_ps(z + r), acc);
  }
  float s = HorizontalSum(acc);
  for (; r < r_len; ++r) s += y[r] * z[r];
  return s;
}

#else  // portable fallback

inline void DotTile4x4(const float* y0, const float* y1, const float* y2,
                       const float* y3, const float* z0, const float* z1,
                       const float* z2, const float* z3, int64_t r_len,
                       float out[4][4]) {
  const float* ys[4] = {y0, y1, y2, y3};
  const float* zs[4] = {z0, z1, z2, z3};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      float s = 0.0f;
      for (int64_t r = 0; r < r_len; ++r) s += ys[i][r] * zs[j][r];
      out[i][j] = s;
    }
  }
}

inline float DotRowInline(const float* y, const float* z, int64_t r_len) {
  float s = 0.0f;
  for (int64_t r = 0; r < r_len; ++r) s += y[r] * z[r];
  return s;
}

#endif  // TSPN_KERNELS_AVX2

}  // namespace

int NumThreads() { return 1; }

float DotRow(const float* y, const float* z, int64_t r_len) {
  return DotRowInline(y, z, r_len);
}

void DotProductGemm(const float* y, const float* z, float* c, int64_t p_rows,
                    int64_t q_rows, int64_t r_len, bool accumulate) {
  if (p_rows <= 0 || q_rows <= 0) return;
  if (r_len <= 0) {
    if (!accumulate) std::fill(c, c + p_rows * q_rows, 0.0f);
    return;
  }
  for (int64_t qb = 0; qb < q_rows; qb += kBlockQ) {
    const int64_t qe = std::min(qb + kBlockQ, q_rows);
    int64_t p = 0;
    for (; p + 4 <= p_rows; p += 4) {
      const float* y0 = y + p * r_len;
      const float* y1 = y0 + r_len;
      const float* y2 = y1 + r_len;
      const float* y3 = y2 + r_len;
      int64_t q = qb;
      for (; q + 4 <= qe; q += 4) {
        const float* z0 = z + q * r_len;
        float tile[4][4];
        DotTile4x4(y0, y1, y2, y3, z0, z0 + r_len, z0 + 2 * r_len,
                   z0 + 3 * r_len, r_len, tile);
        for (int i = 0; i < 4; ++i) {
          float* dst = c + (p + i) * q_rows + q;
          if (accumulate) {
            for (int j = 0; j < 4; ++j) dst[j] += tile[i][j];
          } else {
            for (int j = 0; j < 4; ++j) dst[j] = tile[i][j];
          }
        }
      }
      for (; q < qe; ++q) {
        const float* zq = z + q * r_len;
        const float* ys[4] = {y0, y1, y2, y3};
        for (int i = 0; i < 4; ++i) {
          float s = DotRowInline(ys[i], zq, r_len);
          float* dst = c + (p + i) * q_rows + q;
          if (accumulate) {
            *dst += s;
          } else {
            *dst = s;
          }
        }
      }
    }
    for (; p < p_rows; ++p) {
      const float* yp = y + p * r_len;
      for (int64_t q = qb; q < qe; ++q) {
        float s = DotRowInline(yp, z + q * r_len, r_len);
        float* dst = c + p * q_rows + q;
        if (accumulate) {
          *dst += s;
        } else {
          *dst = s;
        }
      }
    }
  }
}

namespace {

void TransposeInto(const float* src, int64_t rows, int64_t cols, float* dst) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* srow = src + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      dst[j * rows + i] = srow[j];
    }
  }
}

}  // namespace

std::vector<float> TransposeCopy(const float* src, int64_t rows, int64_t cols) {
  std::vector<float> out(static_cast<size_t>(rows * cols));
  TransposeInto(src, rows, cols, out.data());
  return out;
}

const float* TransposeScratch(const float* src, int64_t rows, int64_t cols,
                              int slot) {
  thread_local std::vector<float> scratch[2];
  std::vector<float>& buf = scratch[slot & 1];
  const size_t need = static_cast<size_t>(rows * cols);
  if (buf.size() < need) buf.resize(need);
  TransposeInto(src, rows, cols, buf.data());
  return buf.data();
}

}  // namespace tspn::nn::kernels
