#include "nn/serialize.h"

#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/layers.h"

namespace tspn::nn {
namespace {

TEST(SerializeTest, RoundTripPreservesValues) {
  common::Rng rng(1);
  Linear a(4, 3, rng);
  Linear b(4, 3, rng);  // different init

  std::ostringstream out;
  std::vector<Tensor> a_params = a.Parameters();
  SaveParameters(a_params, out);

  std::istringstream in(out.str());
  std::vector<Tensor> b_params = b.Parameters();
  ASSERT_TRUE(LoadParameters(b_params, in));

  for (size_t i = 0; i < a_params.size(); ++i) {
    ASSERT_EQ(a_params[i].numel(), b_params[i].numel());
    for (int64_t j = 0; j < a_params[i].numel(); ++j) {
      EXPECT_EQ(a_params[i].at(j), b_params[i].at(j));
    }
  }
}

TEST(SerializeTest, RejectsShapeMismatch) {
  common::Rng rng(2);
  Linear a(4, 3, rng);
  Linear b(5, 3, rng);
  std::ostringstream out;
  std::vector<Tensor> a_params = a.Parameters();
  SaveParameters(a_params, out);
  std::istringstream in(out.str());
  std::vector<Tensor> b_params = b.Parameters();
  EXPECT_FALSE(LoadParameters(b_params, in));
}

TEST(SerializeTest, RejectsGarbageInput) {
  std::istringstream in("not a parameter file");
  common::Rng rng(3);
  Linear a(2, 2, rng);
  std::vector<Tensor> params = a.Parameters();
  EXPECT_FALSE(LoadParameters(params, in));
}

}  // namespace
}  // namespace tspn::nn
