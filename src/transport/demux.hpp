#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"

namespace tsim::transport {

/// Per-node packet demultiplexer. A node's single local sink fans out to any
/// number of handlers by packet kind, so a receiver endpoint and a controller
/// agent can share a node (the paper stations the controller at a source
/// node).
class PacketDemux {
 public:
  using Handler = std::function<void(const net::PacketRef&)>;

  void add_handler(net::PacketKind kind, Handler handler);
  void dispatch(const net::PacketRef& packet) const;

 private:
  // PacketKind is a dense 8-value enum, so a flat per-kind array beats a hash
  // map on the per-packet dispatch path: one indexed load, no hashing, and
  // kinds with no handlers cost a single empty-vector check.
  std::array<std::vector<Handler>, net::kPacketKindCount> handlers_{};
};

/// Owns one PacketDemux per node and installs it as the node's local sink on
/// first use. Lives as long as the Network it serves.
class DemuxRegistry {
 public:
  explicit DemuxRegistry(net::Network& network) : network_{network} {}

  DemuxRegistry(const DemuxRegistry&) = delete;
  DemuxRegistry& operator=(const DemuxRegistry&) = delete;

  /// Demux for `node`, created and wired on first request.
  PacketDemux& at(net::NodeId node);

 private:
  net::Network& network_;
  // Dense NodeId-indexed (node ids are small and contiguous); the registry
  // lookup sits on every local delivery, so an indexed load beats hashing.
  std::vector<std::unique_ptr<PacketDemux>> demuxes_;
};

}  // namespace tsim::transport
