// Parameterized property tests for the multi-hop model across the
// (protocol x hops x loss) grid.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "analytic/multi_hop.hpp"

namespace sigcomp::analytic {
namespace {

using Grid = std::tuple<ProtocolKind, std::size_t /*hops*/, double /*loss*/>;

constexpr std::size_t kHops[] = {1, 4, 12, 20};
constexpr double kLosses[] = {0.005, 0.02, 0.1};

MultiHopParams grid_params(const Grid& point) {
  const auto& [kind, hops, loss] = point;
  (void)kind;
  MultiHopParams p = MultiHopParams::reservation_defaults();
  p.hops = hops;
  p.loss = loss;
  p.false_signal_rate = std::pow(loss, 4.0);
  return p;
}

/// Test-name suffix of a grid point, e.g. "SS_RT_K4_loss20".
std::string grid_name(const Grid& point) {
  std::string name{to_string(std::get<0>(point))};
  for (char& c : name) {
    if (c == '+') c = '_';
  }
  name += "_K" + std::to_string(std::get<1>(point));
  name += "_loss" + std::to_string(int(std::get<2>(point) * 1000));
  return name;
}

class MultiHopGrid : public ::testing::TestWithParam<Grid> {
 protected:
  static MultiHopParams params() { return grid_params(GetParam()); }
  static ProtocolKind kind() { return std::get<0>(GetParam()); }
};

TEST_P(MultiHopGrid, ProbabilityMassIsConserved) {
  const MultiHopModel model(kind(), params());
  double total = model.recovery_probability();
  for (std::size_t k = 0; k <= params().hops; ++k) {
    total += model.stationary(k, 0);
    if (k < params().hops) total += model.stationary(k, 1);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(MultiHopGrid, InconsistencyIsAProbability) {
  const MultiHopModel model(kind(), params());
  EXPECT_GT(model.inconsistency(), 0.0);
  EXPECT_LT(model.inconsistency(), 1.0);
}

TEST_P(MultiHopGrid, HopInconsistencyIsMonotoneInHop) {
  const MultiHopModel model(kind(), params());
  for (std::size_t hop = 2; hop <= params().hops; ++hop) {
    EXPECT_GE(model.hop_inconsistency(hop),
              model.hop_inconsistency(hop - 1) - 1e-12)
        << "hop " << hop;
  }
}

TEST_P(MultiHopGrid, HopInconsistencyBoundedByTotal) {
  const MultiHopModel model(kind(), params());
  for (std::size_t hop = 1; hop <= params().hops; ++hop) {
    EXPECT_LE(model.hop_inconsistency(hop), model.inconsistency() + 1e-12);
  }
}

TEST_P(MultiHopGrid, MessageRatesAreFiniteAndNonNegative) {
  const MultiHopModel model(kind(), params());
  const MessageRateBreakdown b = model.message_rates();
  for (const double rate : {b.trigger, b.refresh, b.explicit_removal,
                            b.reliable_trigger, b.reliable_removal}) {
    EXPECT_TRUE(std::isfinite(rate));
    EXPECT_GE(rate, 0.0);
  }
  EXPECT_GT(b.total(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiHopGrid,
    ::testing::Combine(::testing::ValuesIn(kMultiHopProtocols),
                       ::testing::ValuesIn(kHops),
                       ::testing::ValuesIn(kLosses)),
    [](const auto& param_info) { return grid_name(param_info.param); });

// Pairing property: reliable triggers never raise SS's chain inconsistency.
// It applies to SS only, and TEST_P would instantiate it over the whole
// grid, so each SS point is registered here instead, under the name and
// parameter string TEST_P would give it.
class ReliableTriggersPoint : public MultiHopGrid {
 public:
  explicit ReliableTriggersPoint(const Grid& point) : point_(point) {}

  void TestBody() override {
    const MultiHopParams p = grid_params(point_);
    const double ss = MultiHopModel(ProtocolKind::kSS, p).inconsistency();
    const double ssrt = MultiHopModel(ProtocolKind::kSSRT, p).inconsistency();
    EXPECT_LE(ssrt, ss * (1.0 + 1e-9));
  }

 private:
  Grid point_;
};

[[maybe_unused]] const bool kPairingRegistered = [] {
  for (const std::size_t hops : kHops) {
    for (const double loss : kLosses) {
      const Grid point{ProtocolKind::kSS, hops, loss};
      ::testing::RegisterTest(
          "Grid/MultiHopGrid",
          ("ReliableTriggersNeverHurtConsistency/" + grid_name(point)).c_str(),
          nullptr, ::testing::PrintToString(point).c_str(), __FILE__, __LINE__,
          [point]() -> MultiHopGrid* {
            return new ReliableTriggersPoint(point);
          });
    }
  }
  return true;
}();

class HopMonotonicity : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(HopMonotonicity, InconsistencyGrowsWithChainLength) {
  double previous = 0.0;
  for (const std::size_t hops : {1u, 2u, 4u, 8u, 16u}) {
    MultiHopParams p = MultiHopParams::reservation_defaults();
    p.hops = hops;
    const double inconsistency = MultiHopModel(GetParam(), p).inconsistency();
    EXPECT_GT(inconsistency, previous) << "hops " << hops;
    previous = inconsistency;
  }
}

TEST_P(HopMonotonicity, MessageRateGrowsWithChainLength) {
  double previous = 0.0;
  for (const std::size_t hops : {1u, 2u, 4u, 8u, 16u}) {
    MultiHopParams p = MultiHopParams::reservation_defaults();
    p.hops = hops;
    const double rate = MultiHopModel(GetParam(), p).metrics().raw_message_rate;
    EXPECT_GT(rate, previous) << "hops " << hops;
    previous = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(MultiHopProtocols, HopMonotonicity,
                         ::testing::ValuesIn(kMultiHopProtocols),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param)};
                           for (char& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sigcomp::analytic
