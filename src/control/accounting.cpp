#include "control/accounting.hpp"

namespace tsim::control {

void AccountingLedger::on_report(const net::ReceiverReport& report) {
  Account& account = accounts_[{report.session, report.receiver}];
  if (account.reports == 0) account.first_activity = report.window_start;
  account.bytes += report.bytes_received;
  account.layer_seconds += report.subscription *
                           (report.window_end - report.window_start).as_seconds();
  ++account.reports;
  account.last_activity = report.window_end;
  total_bytes_ += report.bytes_received;
}

AccountingLedger::Account AccountingLedger::account(net::SessionId session,
                                                    net::NodeId receiver) const {
  const auto it = accounts_.find({session, receiver});
  return it == accounts_.end() ? Account{} : it->second;
}

std::vector<std::pair<std::pair<net::SessionId, net::NodeId>, AccountingLedger::Account>>
AccountingLedger::accounts() const {
  return {accounts_.begin(), accounts_.end()};
}

}  // namespace tsim::control
