#pragma once

#include <cstdint>

namespace tsim::testing {

/// Process-wide counters kept by the counting global operator new/delete in
/// alloc_counter.cpp. Link that file into a test binary of its own: the
/// replacement applies to every allocation in the process.

/// Calls to operator new since the process started.
[[nodiscard]] std::uint64_t allocations();

/// Usable bytes currently held through operator new.
[[nodiscard]] std::int64_t live_bytes();

}  // namespace tsim::testing
