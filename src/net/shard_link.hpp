#pragma once

#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/shard_executor.hpp"
#include "sim/time.hpp"

namespace tsim::net {

/// Carries packets across a ShardExecutor channel into another shard's
/// Network. The two Networks are separate objects on separate schedulers, so
/// nothing in-flight may be shared: send() copies the packet *fields*, control
/// payload included, by value (PacketRef storage is thread-local and never
/// crosses shards) and the destination shard re-stamps the per-network state
/// — a fresh uid from its own counter and its own dense group-stats id —
/// before the packet enters at `entry_node` through the normal arrival path.
///
/// The channel's latency models the inter-shard access link; it doubles as
/// the executor's conservative lookahead, so it must be at least the real
/// propagation delay between the two partitions.
class ShardLink {
 public:
  ShardLink(sim::ShardExecutor::Channel& channel, Network& destination, NodeId entry_node)
      : channel_{channel}, destination_{destination}, entry_node_{entry_node} {}

  /// Hands `packet` to the destination shard, arriving at `entry_node` at
  /// `now + latency`. Legal only from the source shard's thread while its
  /// window runs (Channel::post's contract).
  void send(const Packet& packet, sim::Time now) {
    Packet copy = packet;      // plain copy: no PacketRef crosses the boundary
    copy.uid = 0;              // re-stamped from the destination's counter
    copy.group_stats_id = kInvalidGroupStatsId;  // dense ids are per-Network
    const sim::Time arrival = now + channel_.latency();
    channel_.post(arrival, [this, copy = std::move(copy)]() mutable {
      copy.uid = destination_.next_packet_uid();
      if (copy.multicast) copy.group_stats_id = destination_.intern_group(copy.group);
      destination_.on_packet_arrival(entry_node_, PacketRef::make(std::move(copy)));
    });
  }

  [[nodiscard]] NodeId entry_node() const { return entry_node_; }
  [[nodiscard]] sim::Time latency() const { return channel_.latency(); }
  [[nodiscard]] std::uint64_t forwarded() const { return channel_.posted(); }

 private:
  sim::ShardExecutor::Channel& channel_;
  Network& destination_;
  NodeId entry_node_;
};

}  // namespace tsim::net
