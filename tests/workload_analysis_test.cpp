// Tests for workload analysis: trace profiling and Zipf-theta estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "vodsim/workload/analysis.h"
#include "vodsim/workload/drift.h"
#include "vodsim/workload/poisson.h"
#include "vodsim/workload/request_generator.h"

namespace vodsim {
namespace {

RequestTrace synthetic_trace(std::size_t num_videos, double theta,
                             std::size_t n, std::uint64_t seed) {
  StaticZipfPopularity popularity(num_videos, theta);
  RequestGenerator generator(PoissonProcess(1.0), popularity, seed);
  return RequestTrace::record(generator, n);
}

TEST(WorkloadProfile, CountsAndShares) {
  RequestTrace trace;
  trace.append({1.0, 0});
  trace.append({2.0, 0});
  trace.append({3.0, 2});
  const WorkloadProfile profile = profile_trace(trace, 4);
  EXPECT_EQ(profile.total, 3u);
  EXPECT_EQ(profile.counts[0], 2u);
  EXPECT_EQ(profile.counts[1], 0u);
  EXPECT_EQ(profile.counts[2], 1u);
  EXPECT_DOUBLE_EQ(profile.shares[0], 2.0 / 3.0);
  EXPECT_EQ(profile.by_popularity[0], 0);
  EXPECT_EQ(profile.by_popularity[1], 2);
}

TEST(WorkloadProfile, HeadShare) {
  RequestTrace trace;
  for (int i = 0; i < 8; ++i) trace.append({static_cast<double>(i), 0});
  for (int i = 8; i < 10; ++i) trace.append({static_cast<double>(i), 1});
  const WorkloadProfile profile = profile_trace(trace, 3);
  EXPECT_DOUBLE_EQ(profile.head_share(1), 0.8);
  EXPECT_DOUBLE_EQ(profile.head_share(2), 1.0);
  EXPECT_DOUBLE_EQ(profile.head_share(99), 1.0);  // clamps
}

TEST(WorkloadProfile, EmptyTraceSafe) {
  const WorkloadProfile profile = profile_trace(RequestTrace{}, 5);
  EXPECT_EQ(profile.total, 0u);
  EXPECT_DOUBLE_EQ(profile.head_share(3), 0.0);
  EXPECT_DOUBLE_EQ(estimate_zipf_theta(profile), 1.0);  // unidentifiable
}

class ThetaRecovery : public ::testing::TestWithParam<double> {};

TEST_P(ThetaRecovery, EstimateMatchesGeneratingTheta) {
  const double theta = GetParam();
  const RequestTrace trace = synthetic_trace(200, theta, 100000, 7);
  const double estimate = estimate_zipf_theta(profile_trace(trace, 200));
  // Log-log regression over 200 ranks with 100k samples: the head is
  // measured precisely; the sparse tail biases the fit slightly upward for
  // very skewed laws, so allow a modest tolerance.
  EXPECT_NEAR(estimate, theta, 0.15) << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThetaRecovery,
                         ::testing::Values(-1.0, -0.5, 0.0, 0.271, 0.5),
                         [](const ::testing::TestParamInfo<double>& info) {
                           const int milli =
                               static_cast<int>(std::lround(info.param * 100));
                           std::string name = milli < 0 ? "m" : "p";
                           name += std::to_string(std::abs(milli));
                           return name;
                         });

TEST(ThetaEstimate, UniformLooksUniform) {
  const RequestTrace trace = synthetic_trace(100, 1.0, 50000, 9);
  const double estimate = estimate_zipf_theta(profile_trace(trace, 100));
  // theta = 1 means a flat law; sampling noise imposes a tiny artificial
  // slope, so the estimate lands just below 1.
  EXPECT_GT(estimate, 0.9);
  EXPECT_LE(estimate, 1.05);
}

TEST(ThetaEstimate, OrdersSkews) {
  // More skewed data must yield a smaller estimated theta.
  const double mild = estimate_zipf_theta(
      profile_trace(synthetic_trace(150, 0.7, 40000, 11), 150));
  const double strong = estimate_zipf_theta(
      profile_trace(synthetic_trace(150, -0.7, 40000, 11), 150));
  EXPECT_LT(strong, mild);
}

TEST(ThetaEstimate, SourceConvenienceOverload) {
  StaticZipfPopularity popularity(100, 0.271);
  RequestGenerator generator(PoissonProcess(1.0), popularity, 13);
  const double estimate = estimate_zipf_theta(generator, 50000, 100);
  EXPECT_NEAR(estimate, 0.271, 0.2);
}

}  // namespace
}  // namespace vodsim
