#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/units.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "traffic/layer_spec.hpp"

namespace tsim::control {

/// Per-receiver usage accounting, fed from the same receiver reports the
/// congestion algorithm consumes. The paper (§II) points out that the domain
/// controller is naturally positioned to bill customers for multicast content
/// delivered; this ledger realizes that: delivered bytes and layer-seconds
/// per (session, receiver), and a simple two-part tariff.
class AccountingLedger {
 public:
  struct Account {
    units::Bytes bytes{};            ///< data bytes delivered
    double layer_seconds{0.0};       ///< Σ subscription_level * window length
    std::uint32_t reports{0};        ///< reports folded in
    sim::Time first_activity{};
    sim::Time last_activity{};

    /// Two-part tariff: volume (per MB delivered) + quality (per layer-hour).
    [[nodiscard]] double charge(double per_megabyte, double per_layer_hour) const {
      return static_cast<double>(bytes.count()) / 1e6 * per_megabyte +
             layer_seconds / 3600.0 * per_layer_hour;
    }
  };

  /// Folds one receiver report into the ledger.
  void on_report(const net::ReceiverReport& report);

  /// Account for one (session, receiver); a zero Account when unknown.
  [[nodiscard]] Account account(net::SessionId session, net::NodeId receiver) const;

  /// All accounts, ordered by (session, receiver).
  [[nodiscard]] std::vector<std::pair<std::pair<net::SessionId, net::NodeId>, Account>>
  accounts() const;

  [[nodiscard]] units::Bytes total_bytes() const { return total_bytes_; }

 private:
  std::map<std::pair<net::SessionId, net::NodeId>, Account> accounts_;
  units::Bytes total_bytes_{};
};

}  // namespace tsim::control
