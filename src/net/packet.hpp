#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <variant>
#include <vector>

#include "core/units.hpp"
#include "sim/time.hpp"

namespace tsim::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;
using SessionId = std::uint16_t;
using LayerId = std::uint8_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr LinkId kInvalidLink = static_cast<LinkId>(-1);

/// Dense per-Network index of a multicast group for flat stats arrays; see
/// Network::intern_group. Stamped into packets at send_multicast so links
/// never hash a GroupAddr on the per-packet path.
inline constexpr std::uint32_t kInvalidGroupStatsId = static_cast<std::uint32_t>(-1);

/// A multicast group address. The paper's layered model sends every layer of
/// a session on its own multicast address; receivers subscribe cumulatively.
struct GroupAddr {
  SessionId session{0};
  LayerId layer{0};

  [[nodiscard]] friend bool operator==(GroupAddr, GroupAddr) = default;
  [[nodiscard]] friend auto operator<=>(GroupAddr, GroupAddr) = default;
  /// Dense index usable as an array/hash key.
  [[nodiscard]] std::uint32_t key() const {
    return (static_cast<std::uint32_t>(session) << 8) | layer;
  }
};

enum class PacketKind : std::uint8_t {
  kData,            ///< multicast media payload
  kReport,          ///< receiver -> controller loss/byte report (unicast)
  kSuggestion,      ///< controller -> receiver subscription suggestion (unicast)
  kMtraceQuery,     ///< discovery tool -> receiver path query (unicast)
  kMtraceResponse,  ///< receiver -> discovery tool path response (unicast)
  kTcpData,         ///< simplified TCP segment (unicast cross-traffic)
  kTcpAck,          ///< simplified TCP cumulative ACK
  kSummary,         ///< inter-domain controller summary (unicast)
};

/// Number of PacketKind values; keep in sync with the enum above. Lets
/// per-kind state live in flat arrays indexed by the kind instead of hashes.
inline constexpr std::size_t kPacketKindCount =
    static_cast<std::size_t>(PacketKind::kSummary) + 1;

// Control-plane payloads: plain values carried in Packet::control, one type
// per non-data PacketKind (kTcpData and kTcpAck share TcpSegment). The
// handler a PacketDemux runs for a kind reads its payload with std::get_if.

/// RTCP-style receiver report (kReport), carried as a unicast packet from a
/// receiver to its domain controller. Contains exactly what the paper's
/// algorithm consumes: loss rate, bytes received and the current subscription
/// level for one session, measured over one reporting window.
struct ReceiverReport {
  NodeId receiver{kInvalidNode};
  SessionId session{0};
  int subscription{0};               ///< layers currently subscribed (0..num_layers)
  units::LossFraction loss_rate{};   ///< fraction of expected packets lost in the window
  units::Bytes bytes_received{};     ///< data bytes received in the window
  units::PacketCount received_packets{};
  units::PacketCount lost_packets{};
  sim::Time window_start{};
  sim::Time window_end{};
  std::uint32_t report_seq{0};
};

/// Controller -> receiver subscription suggestion (kSuggestion).
struct Suggestion {
  NodeId receiver{kInvalidNode};
  SessionId session{0};
  int subscription{0};     ///< suggested number of layers
  std::uint32_t epoch{0};  ///< controller interval counter, newest wins
};

/// mtrace-style query (kMtraceQuery): "which path does session S take to
/// you, and which layers do you hold?".
struct MtraceQuery {
  SessionId session{0};
  NodeId receiver{kInvalidNode};
  std::uint32_t round{0};
};

/// mtrace response (kMtraceResponse) carrying the hop path from the session
/// source to the receiver and the receiver's per-layer membership — what the
/// routers' mtrace blocks report hop by hop.
struct MtraceResponse {
  SessionId session{0};
  NodeId receiver{kInvalidNode};
  std::uint32_t round{0};
  std::vector<NodeId> path{};  ///< source first, receiver last
  int subscribed_layers{0};
};

/// Simplified TCP segment: a data segment (kTcpData) or a cumulative ACK
/// (kTcpAck).
struct TcpSegment {
  std::uint64_t seq{0};      ///< kTcpData: segment index (not bytes)
  std::uint64_t ack_seq{0};  ///< kTcpAck: next expected segment (cumulative)
};

/// Inter-domain summary (kSummary), exchanged between per-domain controllers
/// through the simulated network, so summaries compete with data and can be
/// lost like any other control traffic.
///
/// Child -> parent (kDemand): the child domain compresses everything it knows
/// about its receivers of one session into a pseudo-receiver stationed at the
/// domain's border node — max subscription as aggregate demand, the *minimum*
/// loss across its receivers as the shared-upstream bottleneck estimate (loss
/// every child receiver sees is loss the child domain cannot fix locally),
/// and the best per-receiver goodput as the border's achievable bandwidth.
/// The parent folds this into its own interval as an ordinary receiver report
/// from the border node.
///
/// Parent -> child (kCap): the parent's prescription for the border
/// pseudo-receiver, i.e. how many layers the shared tree can deliver into the
/// child domain. The child clamps its own prescriptions to this cap, so a
/// bottleneck above the border is still honored by receivers the parent has
/// never heard of.
struct DomainSummary {
  enum class Direction : std::uint8_t {
    kDemand,  ///< child -> parent aggregate
    kCap,     ///< parent -> child subscription ceiling
  };
  Direction direction{Direction::kDemand};
  std::uint32_t domain{0};                  ///< sender's domain index
  SessionId session{0};
  NodeId border{kInvalidNode};              ///< child domain's root node
  int subscription{1};                      ///< demand (kDemand) or cap (kCap)
  units::LossFraction shared_loss{};        ///< min loss across domain receivers
  units::Bytes bytes_received{};            ///< best per-receiver window goodput
  units::PacketCount received_packets{};
  units::PacketCount lost_packets{};
  std::uint32_t receiver_count{0};          ///< receivers folded into the aggregate
  sim::Time window_start{};
  sim::Time window_end{};
  std::uint32_t summary_seq{0};
};

/// On-the-wire sizes used for the simulated control packets. Small relative
/// to the 1000-byte data packets, as RTCP packets are.
inline constexpr std::uint32_t kReportPacketBytes = 64;
inline constexpr std::uint32_t kSuggestionPacketBytes = 64;
inline constexpr std::uint32_t kSummaryPacketBytes = 64;
inline constexpr std::uint32_t kMtracePacketBytes = 96;

/// A simulated packet's fields. Callers build one of these per *send*; inside
/// the network it travels behind a PacketRef flyweight, so replication down a
/// multicast tree and the per-hop timer captures copy one pointer, not the
/// struct. The control payload is held by value, last, so the datapath fields
/// stay in the first cache line.
struct Packet {
  std::uint64_t uid{0};
  PacketKind kind{PacketKind::kData};
  std::uint32_t size_bytes{0};
  NodeId src{kInvalidNode};
  NodeId dst{kInvalidNode};  ///< unicast destination; kInvalidNode for multicast
  bool multicast{false};
  GroupAddr group{};         ///< valid when multicast
  std::uint32_t seq{0};      ///< per-(session,layer) sequence number
  sim::Time sent_at{};
  /// Dense stats index of `group` (Network::intern_group), stamped by
  /// send_multicast; kInvalidGroupStatsId until then.
  std::uint32_t group_stats_id{kInvalidGroupStatsId};
  std::variant<std::monostate, ReceiverReport, Suggestion, MtraceQuery, MtraceResponse,
               TcpSegment, DomainSummary>
      control{};
};

/// Shared, immutable in-flight packet: one refcounted copy of the fields,
/// control payload included, per send, handed around by 8-byte PacketRef
/// values. This is the packet's only sharing mechanism. A released node
/// keeps its last payload until the next make() overwrites it. The refcount
/// is plain (not atomic) because a simulation is single-threaded by design —
/// parallel benches run one whole simulation per thread, and nodes come from
/// a thread_local pool, so a packet's life never crosses threads.
class PacketRef {
 public:
  PacketRef() = default;

  /// Moves `fields` into pooled shared storage with refcount 1.
  static PacketRef make(Packet&& fields) {
    Node* node = acquire_node();
    node->packet = std::move(fields);
    node->refs = 1;
    return PacketRef{node};
  }

  // noexcept copies keep closures that capture a `const PacketRef&` by value
  // nothrow-movable, so sim::SmallCallback stores them inline, not on the heap.
  PacketRef(const PacketRef& other) noexcept : node_{other.node_} {
    if (node_ != nullptr) ++node_->refs;
  }
  PacketRef(PacketRef&& other) noexcept : node_{std::exchange(other.node_, nullptr)} {}
  PacketRef& operator=(const PacketRef& other) noexcept {
    PacketRef copy{other};
    std::swap(node_, copy.node_);
    return *this;
  }
  PacketRef& operator=(PacketRef&& other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~PacketRef() { release(); }

  [[nodiscard]] explicit operator bool() const { return node_ != nullptr; }
  [[nodiscard]] const Packet& operator*() const { return node_->packet; }
  [[nodiscard]] const Packet* operator->() const { return &node_->packet; }

 private:
  struct Node {
    Packet packet;
    std::uint32_t refs{0};
  };

  explicit PacketRef(Node* node) : node_{node} {}

  void release() {
    if (node_ == nullptr || --node_->refs != 0) return;
    pool().push_back(node_);
    node_ = nullptr;
  }

  static std::vector<Node*>& pool() {
    struct Pool {
      std::vector<Node*> free_nodes;
      ~Pool() {
        for (Node* node : free_nodes) delete node;
      }
    };
    thread_local Pool pool;
    return pool.free_nodes;
  }

  static Node* acquire_node() {
    auto& free_nodes = pool();
    if (free_nodes.empty()) return new Node{};
    Node* node = free_nodes.back();
    free_nodes.pop_back();
    return node;
  }

  Node* node_{nullptr};
};

}  // namespace tsim::net

template <>
struct std::hash<tsim::net::GroupAddr> {
  std::size_t operator()(tsim::net::GroupAddr g) const noexcept {
    return std::hash<std::uint32_t>{}(g.key());
  }
};
