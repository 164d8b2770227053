#include "control/accounting.hpp"

#include <gtest/gtest.h>

namespace tsim::control {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

net::ReceiverReport report(net::SessionId session, net::NodeId receiver,
                           std::uint64_t bytes, int subscription, Time start, Time end) {
  net::ReceiverReport r;
  r.session = session;
  r.receiver = receiver;
  r.bytes_received = tsim::units::Bytes{bytes};
  r.subscription = subscription;
  r.window_start = start;
  r.window_end = end;
  return r;
}

TEST(AccountingTest, UnknownAccountIsZero) {
  const AccountingLedger ledger;
  const auto account = ledger.account(1, 2);
  EXPECT_EQ(account.bytes.count(), 0u);
  EXPECT_DOUBLE_EQ(account.layer_seconds, 0.0);
  EXPECT_EQ(account.reports, 0u);
}

TEST(AccountingTest, AccumulatesBytesAndLayerSeconds) {
  AccountingLedger ledger;
  ledger.on_report(report(0, 10, 56'000, 4, Time::zero(), 2_s));
  ledger.on_report(report(0, 10, 60'000, 4, 2_s, 4_s));
  ledger.on_report(report(0, 10, 28'000, 3, 4_s, 6_s));

  const auto account = ledger.account(0, 10);
  EXPECT_EQ(account.bytes.count(), 144'000u);
  EXPECT_DOUBLE_EQ(account.layer_seconds, 4 * 2 + 4 * 2 + 3 * 2);
  EXPECT_EQ(account.reports, 3u);
  EXPECT_EQ(account.first_activity, Time::zero());
  EXPECT_EQ(account.last_activity, 6_s);
}

TEST(AccountingTest, AccountsAreSeparatedBySessionAndReceiver) {
  AccountingLedger ledger;
  ledger.on_report(report(0, 10, 1000, 1, Time::zero(), 1_s));
  ledger.on_report(report(0, 11, 2000, 2, Time::zero(), 1_s));
  ledger.on_report(report(1, 10, 3000, 3, Time::zero(), 1_s));

  EXPECT_EQ(ledger.account(0, 10).bytes.count(), 1000u);
  EXPECT_EQ(ledger.account(0, 11).bytes.count(), 2000u);
  EXPECT_EQ(ledger.account(1, 10).bytes.count(), 3000u);
  EXPECT_EQ(ledger.total_bytes().count(), 6000u);
  EXPECT_EQ(ledger.accounts().size(), 3u);
}

TEST(AccountingTest, TariffChargesBothParts) {
  AccountingLedger ledger;
  // 10 MB delivered, 2 layer-hours.
  ledger.on_report(report(0, 10, 10'000'000, 2, Time::zero(), 3600_s));
  const auto account = ledger.account(0, 10);
  // charge = 10 MB * 0.5 + 2 layer-hours * 1.25
  EXPECT_NEAR(account.charge(0.5, 1.25), 10.0 * 0.5 + 2.0 * 1.25, 1e-9);
}

TEST(AccountingTest, AccountsOrderedDeterministically) {
  AccountingLedger ledger;
  ledger.on_report(report(1, 5, 1, 1, Time::zero(), 1_s));
  ledger.on_report(report(0, 9, 1, 1, Time::zero(), 1_s));
  ledger.on_report(report(0, 3, 1, 1, Time::zero(), 1_s));
  const auto all = ledger.accounts();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, (std::pair<net::SessionId, net::NodeId>{0, 3}));
  EXPECT_EQ(all[1].first, (std::pair<net::SessionId, net::NodeId>{0, 9}));
  EXPECT_EQ(all[2].first, (std::pair<net::SessionId, net::NodeId>{1, 5}));
}

}  // namespace
}  // namespace tsim::control
