#include "grid/point.h"

#include <gtest/gtest.h>

namespace seg {
namespace {

TEST(TorusWrap, Identity) {
  EXPECT_EQ(torus_wrap(3, 10), 3);
  EXPECT_EQ(torus_wrap(0, 10), 0);
  EXPECT_EQ(torus_wrap(9, 10), 9);
}

TEST(TorusWrap, PositiveOverflow) {
  EXPECT_EQ(torus_wrap(10, 10), 0);
  EXPECT_EQ(torus_wrap(23, 10), 3);
}

TEST(TorusWrap, NegativeValues) {
  EXPECT_EQ(torus_wrap(-1, 10), 9);
  EXPECT_EQ(torus_wrap(-10, 10), 0);
  EXPECT_EQ(torus_wrap(-13, 10), 7);
}

TEST(TorusDelta, ShortestSignedDisplacement) {
  EXPECT_EQ(torus_delta(0, 3, 10), 3);
  EXPECT_EQ(torus_delta(3, 0, 10), -3);
  EXPECT_EQ(torus_delta(9, 0, 10), 1);   // wrapping forward is shorter
  EXPECT_EQ(torus_delta(0, 9, 10), -1);  // wrapping backward is shorter
}

TEST(TorusDelta, HalfwayConvention) {
  // Displacement of exactly n/2 is reported as +n/2.
  EXPECT_EQ(torus_delta(0, 5, 10), 5);
}

TEST(TorusDistances, LinfAcrossSeam) {
  EXPECT_EQ(torus_linf({0, 0}, {9, 9}, 10), 1);
  EXPECT_EQ(torus_linf({0, 0}, {5, 0}, 10), 5);
  EXPECT_EQ(torus_linf({2, 3}, {2, 3}, 10), 0);
}

TEST(TorusDistances, L1AcrossSeam) {
  EXPECT_EQ(torus_l1({0, 0}, {9, 9}, 10), 2);
  EXPECT_EQ(torus_l1({1, 1}, {4, 5}, 10), 7);
}

TEST(TorusDistances, L2Squared) {
  EXPECT_EQ(torus_l2_sq({0, 0}, {3, 4}, 100), 25);
  EXPECT_EQ(torus_l2_sq({0, 0}, {99, 0}, 100), 1);
}

}  // namespace
}  // namespace seg
