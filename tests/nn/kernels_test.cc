// Unit test for the raw scoring kernel: the serving layer's batched == serial
// bitwise-parity contract leans on the row-independence pinned here.

#include "nn/kernels.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tspn::nn::kernels {
namespace {

std::vector<float> RandomVector(int64_t n, common::Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Gaussian());
  return v;
}

TEST(DotProductGemmTest, EachRowBitwiseMatchesOneRowCall) {
  // The 4x4 register tile and the leftover-row path must give every output
  // row exactly what a 1-row call on that row gives, whatever the number of
  // rows around it. p_rows 1..9 covers whole tiles and every row remainder;
  // q_rows straddles the 64-row Z stripe and the 4-column tile tail; r_len
  // covers the 16-, 8- and scalar-step reductions.
  common::Rng rng(7);
  for (int64_t r_len : {13, 64}) {
    for (int64_t q_rows : {1, 3, 63, 64, 65, 70, 130}) {
      const std::vector<float> z = RandomVector(q_rows * r_len, rng);
      for (int64_t p_rows = 1; p_rows <= 9; ++p_rows) {
        const std::vector<float> y = RandomVector(p_rows * r_len, rng);
        const std::vector<float> c0 = RandomVector(p_rows * q_rows, rng);
        for (bool accumulate : {false, true}) {
          std::vector<float> c = c0;
          DotProductGemm(y.data(), z.data(), c.data(), p_rows, q_rows, r_len,
                         accumulate);
          for (int64_t p = 0; p < p_rows; ++p) {
            std::vector<float> row(c0.begin() + p * q_rows,
                                   c0.begin() + (p + 1) * q_rows);
            DotProductGemm(y.data() + p * r_len, z.data(), row.data(), 1,
                           q_rows, r_len, accumulate);
            for (int64_t q = 0; q < q_rows; ++q) {
              ASSERT_EQ(c[static_cast<size_t>(p * q_rows + q)],
                        row[static_cast<size_t>(q)])
                  << "p_rows=" << p_rows << " q_rows=" << q_rows
                  << " r_len=" << r_len << " accumulate=" << accumulate
                  << " at [" << p << ", " << q << "]";
            }
          }
        }
      }
    }
  }
}

TEST(DotProductGemmTest, EveryElementIsOneDotRowEitherWay) {
  // Each element is DotRow of its Y row and Z row, whether it came out of a
  // 4x4 tile (reduced four accumulators at a time) or a leftover row or
  // column, and whichever operand is Y: stage-2 scoring of a few candidates
  // and the transpose-free backward passes both rest on this. r_len covers
  // every tail of the 16-wide, 8-wide and scalar steps; p_rows and q_rows
  // every tile remainder and the 64-row Z stripe; accumulate adds the dot
  // product into what C held.
  common::Rng rng(9);
  for (int64_t r_len : {1, 7, 8, 9, 16, 17, 24, 31, 32, 33, 96, 128}) {
    for (int64_t p_rows = 1; p_rows <= 9; ++p_rows) {
      for (int64_t q_rows : {1, 3, 4, 5, 63, 64, 65, 130}) {
        const std::vector<float> y = RandomVector(p_rows * r_len, rng);
        const std::vector<float> z = RandomVector(q_rows * r_len, rng);
        const std::vector<float> c0 = RandomVector(p_rows * q_rows, rng);
        for (bool accumulate : {false, true}) {
          std::vector<float> c = c0;
          std::vector<float> ct(c.size());
          for (int64_t p = 0; p < p_rows; ++p) {
            for (int64_t q = 0; q < q_rows; ++q) {
              ct[static_cast<size_t>(q * p_rows + p)] =
                  c0[static_cast<size_t>(p * q_rows + q)];
            }
          }
          DotProductGemm(y.data(), z.data(), c.data(), p_rows, q_rows, r_len,
                         accumulate);
          DotProductGemm(z.data(), y.data(), ct.data(), q_rows, p_rows, r_len,
                         accumulate);
          for (int64_t p = 0; p < p_rows; ++p) {
            for (int64_t q = 0; q < q_rows; ++q) {
              const float dot =
                  DotRow(y.data() + p * r_len, z.data() + q * r_len, r_len);
              const float want =
                  accumulate ? c0[static_cast<size_t>(p * q_rows + q)] + dot
                             : dot;
              ASSERT_EQ(c[static_cast<size_t>(p * q_rows + q)], want)
                  << "r_len=" << r_len << " p_rows=" << p_rows
                  << " q_rows=" << q_rows << " accumulate=" << accumulate
                  << " [" << p << ", " << q << "]";
              ASSERT_EQ(ct[static_cast<size_t>(q * p_rows + p)], want)
                  << "r_len=" << r_len << " p_rows=" << p_rows
                  << " q_rows=" << q_rows << " accumulate=" << accumulate
                  << " transposed [" << q << ", " << p << "]";
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tspn::nn::kernels
