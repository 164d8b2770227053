#include "core/toposense.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>
#include <utility>

namespace tsim::core {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

SessionNodeInput node(net::NodeId id, net::NodeId parent) {
  SessionNodeInput n;
  n.node = id;
  n.parent = parent;
  return n;
}

SessionNodeInput receiver(net::NodeId id, net::NodeId parent, double loss, std::uint64_t bytes,
                          int sub) {
  SessionNodeInput n = node(id, parent);
  n.is_receiver = true;
  n.loss_rate = tsim::units::LossFraction{loss};
  n.bytes_received = tsim::units::Bytes{bytes};
  n.subscription = sub;
  return n;
}

Params test_params() {
  Params p;
  p.p_threshold = 0.02;
  p.high_loss = 0.08;
  p.interval = 1_s;
  p.backoff_min = 5_s;
  p.backoff_max = 5_s;  // deterministic backoff for tests
  return p;
}

/// Bytes a receiver at `sub` layers sees over a 1 s window with no loss.
std::uint64_t bytes_for(const traffic::LayerSpec& spec, int sub) {
  return static_cast<std::uint64_t>(spec.cumulative_rate(sub).bps() / 8.0);
}

int prescription_for(const AlgorithmOutput& out, net::NodeId rcv) {
  for (const auto& p : out.prescriptions) {
    if (p.receiver == rcv) return p.subscription;
  }
  return -1;
}

struct TopoSenseFixture : ::testing::Test {
  Params params{test_params()};
  TopoSense algo{params, sim::Rng{99}};

  /// Single receiver behind two hops: 1 -> 2 -> 100.
  AlgorithmInput single(double loss, int sub, std::uint64_t bytes) {
    AlgorithmInput in;
    in.window = params.interval;
    SessionInput s;
    s.session = 0;
    s.source = 1;
    s.nodes = {node(1, net::kInvalidNode), node(2, 1), receiver(100, 2, loss, bytes, sub)};
    in.sessions.push_back(s);
    return in;
  }
};

TEST_F(TopoSenseFixture, CleanReceiverClimbsOneLayerPerInterval) {
  Time t = 1_s;
  int sub = 1;
  for (int i = 0; i < 5; ++i) {
    // Growing bytes: equality class "Lesser" (prev < cur) with history 0.
    const auto out = algo.run_interval(single(0.0, sub, bytes_for(params.layers, sub)), t);
    const int next = prescription_for(out, 100);
    EXPECT_EQ(next, std::min(sub + 1, params.layers.num_layers)) << "interval " << i;
    sub = next;
    t += 1_s;
  }
}

TEST_F(TopoSenseFixture, SustainedCongestionReducesSubscription) {
  Time t = 1_s;
  // Climb to 4 first.
  int sub = 1;
  for (int i = 0; i < 3; ++i) {
    sub = prescription_for(
        algo.run_interval(single(0.0, sub, bytes_for(params.layers, sub)), t), 100);
    t += 1_s;
  }
  ASSERT_EQ(sub, 4);
  // Now two congested intervals with flat bandwidth.
  const std::uint64_t flat = bytes_for(params.layers, 3);
  int reduced = sub;
  for (int i = 0; i < 3; ++i) {
    reduced = prescription_for(algo.run_interval(single(0.15, reduced, flat), t), 100);
    t += 1_s;
  }
  EXPECT_LT(reduced, 4);
}

TEST_F(TopoSenseFixture, BackoffPreventsImmediateReadd) {
  // Receiver 100 suffers high loss while its sibling 101 is clean, so the
  // congestion stays leaf-local (the parent is not congested: its children
  // disagree) and the Table-I leaf row "hist 001 / Lesser -> drop + backoff"
  // fires at receiver 100 itself.
  auto make_input = [&](double loss100, int sub100, std::uint64_t bytes100) {
    AlgorithmInput in;
    in.window = params.interval;
    SessionInput s;
    s.session = 0;
    s.source = 1;
    s.nodes = {node(1, net::kInvalidNode), node(2, 1),
               receiver(100, 2, loss100, bytes100, sub100),
               receiver(101, 2, 0.0, bytes_for(params.layers, 2), 2)};
    in.sessions.push_back(s);
    return in;
  };

  Time t = 1_s;
  algo.run_interval(make_input(0.0, 3, bytes_for(params.layers, 2)), t);
  t += 1_s;
  // Bytes grew (Lesser) and loss is high: hist 001/Lesser -> drop layer 3.
  const auto out = algo.run_interval(
      make_input(0.12, 3, bytes_for(params.layers, 3) * 9 / 10), t);
  const int dropped = prescription_for(out, 100);
  EXPECT_EQ(dropped, 2);
  EXPECT_TRUE(algo.backing_off(0, 100, 3, t));
  // Backoff expires 5 s later (deterministic in tests).
  EXPECT_FALSE(algo.backing_off(0, 100, 3, t + 6_s));

  // While backing off, clean intervals must not climb back into layer 3.
  t += 1_s;
  int cur = dropped;
  while (t < 6_s) {
    cur = prescription_for(
        algo.run_interval(make_input(0.0, cur, bytes_for(params.layers, cur)), t), 100);
    EXPECT_LE(cur, dropped);
    t += 1_s;
  }
}

TEST_F(TopoSenseFixture, SubtreeIndependence) {
  // Fig 1 intuition: congestion under node 2 must not curb the receiver
  // under node 5.
  Time t = 1_s;
  AlgorithmInput in;
  in.window = params.interval;
  SessionInput s;
  s.session = 0;
  s.source = 1;
  s.nodes = {node(1, net::kInvalidNode),
             node(2, 1),
             receiver(3, 2, 0.12, bytes_for(params.layers, 2), 2),
             receiver(4, 2, 0.13, bytes_for(params.layers, 2), 2),
             node(5, 1),
             receiver(6, 5, 0.0, bytes_for(params.layers, 4), 4)};
  in.sessions.push_back(s);

  // Two intervals of the same state so histories build up.
  algo.run_interval(in, t);
  t += 1_s;
  const auto out = algo.run_interval(in, t);
  EXPECT_LE(prescription_for(out, 3), 2);
  EXPECT_LE(prescription_for(out, 4), 2);
  EXPECT_GE(prescription_for(out, 6), 4);  // unaffected branch keeps climbing
}

TEST_F(TopoSenseFixture, SharedBottleneckCoordination) {
  // Both receivers behind node 2 lose similarly -> node 2 is the congested
  // root and acts once; receivers are not individually punished below the
  // subtree's supply.
  Time t = 1_s;
  AlgorithmInput in;
  in.window = params.interval;
  SessionInput s;
  s.session = 0;
  s.source = 1;
  s.nodes = {node(1, net::kInvalidNode), node(2, 1),
             receiver(3, 2, 0.12, bytes_for(params.layers, 3), 3),
             receiver(4, 2, 0.12, bytes_for(params.layers, 3), 3)};
  in.sessions.push_back(s);
  algo.run_interval(in, t);
  t += 1_s;
  const auto out = algo.run_interval(in, t);
  const int p3 = prescription_for(out, 3);
  const int p4 = prescription_for(out, 4);
  EXPECT_EQ(p3, p4);  // coordinated
  EXPECT_LT(p3, 3);   // reduced
}

TEST_F(TopoSenseFixture, PrescriptionsNeverBelowBaseLayer) {
  Time t = 1_s;
  for (int i = 0; i < 10; ++i) {
    const auto out = algo.run_interval(single(0.9, 1, 100), t);
    ASSERT_EQ(out.prescriptions.size(), 1u);
    EXPECT_GE(out.prescriptions[0].subscription, 1);
    t += 1_s;
  }
}

TEST_F(TopoSenseFixture, PrescriptionsNeverAboveMaxLayers) {
  Time t = 1_s;
  int sub = 5;
  for (int i = 0; i < 10; ++i) {
    const auto out =
        algo.run_interval(single(0.0, sub, bytes_for(params.layers, sub) + 50 * i), t);
    sub = prescription_for(out, 100);
    ASSERT_LE(sub, params.layers.num_layers);
    t += 1_s;
  }
  EXPECT_EQ(sub, params.layers.num_layers);
}

TEST_F(TopoSenseFixture, EmptyInputProducesEmptyOutput) {
  const auto out = algo.run_interval(AlgorithmInput{}, 1_s);
  EXPECT_TRUE(out.prescriptions.empty());
  EXPECT_TRUE(out.diagnostics.empty());
}

TEST_F(TopoSenseFixture, DiagnosticsCoverEveryNode) {
  const auto out = algo.run_interval(single(0.0, 2, bytes_for(params.layers, 2)), 1_s);
  ASSERT_EQ(out.diagnostics.size(), 1u);
  EXPECT_EQ(out.diagnostics[0].nodes.size(), 3u);
}

TEST_F(TopoSenseFixture, CapacityEstimateCapsSupplyAcrossSessions) {
  // Two sessions share link (1,2); both lose heavily while receiving about
  // 250 Kbps each -> estimated capacity ~500 Kbps -> shares ~250 Kbps
  // -> supply capped at 3 layers each.
  Time t = 1_s;
  auto make_input = [&](double loss, int sub) {
    AlgorithmInput in;
    in.window = params.interval;
    for (net::SessionId k = 0; k < 2; ++k) {
      SessionInput s;
      s.session = k;
      s.source = 1;
      s.nodes = {node(1, net::kInvalidNode), node(2, 1),
                 receiver(100 + k, 2, loss, 31'250, sub)};  // 250 Kbps
      in.sessions.push_back(s);
    }
    return in;
  };
  algo.run_interval(make_input(0.15, 4), t);
  EXPECT_NEAR(algo.capacities().capacity_bps(LinkKey{1, 2}), 500e3, 1e3);
  t += 1_s;
  const auto out = algo.run_interval(make_input(0.15, 4), t);
  for (const auto& p : out.prescriptions) {
    EXPECT_LE(p.subscription, 3) << "receiver " << p.receiver;
  }
}

TEST_F(TopoSenseFixture, DeterministicGivenSameSeedAndInputs) {
  TopoSense a{test_params(), sim::Rng{7}};
  TopoSense b{test_params(), sim::Rng{7}};
  Time t = 1_s;
  for (int i = 0; i < 20; ++i) {
    const double loss = (i % 5 == 4) ? 0.12 : 0.0;
    const auto oa = a.run_interval(single(loss, 3, bytes_for(params.layers, 3)), t);
    const auto ob = b.run_interval(single(loss, 3, bytes_for(params.layers, 3)), t);
    ASSERT_EQ(oa.prescriptions.size(), ob.prescriptions.size());
    for (std::size_t j = 0; j < oa.prescriptions.size(); ++j) {
      EXPECT_EQ(oa.prescriptions[j].subscription, ob.prescriptions[j].subscription);
    }
    t += 1_s;
  }
}

// A copy's cached trees would point into the original's per-node memory, so
// copying is deleted; moving keeps the map nodes, so it stays available.
static_assert(!std::is_copy_constructible_v<TopoSense>);
static_assert(!std::is_copy_assignable_v<TopoSense>);
static_assert(std::is_move_constructible_v<TopoSense>);
static_assert(std::is_move_assignable_v<TopoSense>);

TEST_F(TopoSenseFixture, MovedInstanceContinuesLikeItsTwin) {
  TopoSense twin{test_params(), sim::Rng{7}};
  TopoSense original{test_params(), sim::Rng{7}};
  const auto interval = [&](TopoSense& instance, int i) {
    const double loss = (i % 5 == 4) ? 0.12 : 0.0;
    return instance.run_interval(single(loss, 3, bytes_for(params.layers, 3)),
                                 Time::seconds(std::int64_t{i + 1}));
  };
  const auto expect_same = [](const AlgorithmOutput& a, const AlgorithmOutput& b) {
    ASSERT_EQ(a.prescriptions.size(), b.prescriptions.size());
    for (std::size_t j = 0; j < a.prescriptions.size(); ++j) {
      EXPECT_EQ(a.prescriptions[j].subscription, b.prescriptions[j].subscription);
    }
  };
  int i = 0;
  for (; i < 8; ++i) expect_same(interval(original, i), interval(twin, i));

  // The moved-to instance carries the cached trees and node memories along.
  TopoSense moved{std::move(original)};
  for (; i < 16; ++i) expect_same(interval(moved, i), interval(twin, i));

  TopoSense assigned{test_params(), sim::Rng{1}};
  assigned = std::move(moved);
  for (; i < 24; ++i) expect_same(interval(assigned, i), interval(twin, i));
}

}  // namespace
}  // namespace tsim::core
