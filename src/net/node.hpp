// Nodes: switches (static forwarding over output links) and hosts
// (transport agents + hypervisor filter chain + one NIC uplink).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/filter.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/unique_function.hpp"

namespace hwatch::net {

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Invoked by an incoming Link when a packet finishes propagation.
  virtual void handle_packet(Packet&& p) = 0;

 private:
  NodeId id_;
  std::string name_;
};

/// Output-queued switch with a static forwarding table.  Equal-cost
/// multipath is supported by storing several next hops per destination
/// and picking one by flow hash (packets of one flow stay in order).
class Switch final : public Node {
 public:
  using Node::Node;

  /// Adds `link` as a next hop towards destination host `dst`.
  void add_route(NodeId dst, Link* link) { routes_[dst].push_back(link); }

  /// Adds a next hop for every destination in the contiguous global-id
  /// range [lo, hi] (inclusive).  Ranges must be added in ascending
  /// order and must not overlap; several links on the same range form an
  /// ECMP group.  Structural fabrics (fat-tree pods, leaf-spine racks)
  /// route with a handful of ranges instead of a per-host map — at 10k
  /// hosts that is the difference between kilobytes and hundreds of
  /// megabytes of forwarding state.
  void add_range_route(NodeId lo, NodeId hi, Link* link);

  /// Fallback ECMP group when neither an exact nor a range route
  /// matches — "everything else goes up" in hierarchical fabrics.
  void set_default_routes(std::vector<Link*> links) {
    default_routes_ = std::move(links);
  }

  void clear_routes() {
    routes_.clear();
    range_routes_.clear();
    default_routes_.clear();
  }

  void handle_packet(Packet&& p) override;

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t routeless_drops() const { return routeless_drops_; }
  std::size_t route_count() const { return routes_.size(); }
  std::size_t range_route_count() const { return range_routes_.size(); }
  std::size_t default_route_count() const { return default_routes_.size(); }

 private:
  struct RangeRoute {
    NodeId lo;
    NodeId hi;  // inclusive
    std::vector<Link*> hops;
  };

  Link* select_route(const Packet& p) const;
  static Link* pick(const std::vector<Link*>& hops, const Packet& p);

  std::unordered_map<NodeId, std::vector<Link*>> routes_;
  std::vector<RangeRoute> range_routes_;  // sorted by lo, disjoint
  std::vector<Link*> default_routes_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t routeless_drops_ = 0;
};

/// End host: local transport agents keyed by destination port, an
/// optional hypervisor filter chain, and a single NIC uplink.
class Host final : public Node {
 public:
  using Node::Node;

  /// Handler receives packets whose tcp.dst_port matches the bound port.
  /// Move-only: handlers are invoked per packet on the delivery hot
  /// path, so no std::function (and no copyability requirement).
  using AgentHandler = sim::UniqueFunction<void(Packet&&)>;

  void set_nic(Link* uplink) { nic_ = uplink; }
  Link* nic() const { return nic_; }

  void bind(std::uint16_t port, AgentHandler handler);
  void unbind(std::uint16_t port);
  bool is_bound(std::uint16_t port) const {
    return agents_.contains(port);
  }

  /// Installs a filter at the back of the chain (non-owning; the caller
  /// keeps the filter alive, typically the scenario object).
  void install_filter(PacketFilter* f) { filters_.push_back(f); }

  /// Transport-agent send path: OUT filter chain, then the NIC.
  void send(Packet&& p);

  /// Hypervisor send path: bypasses the OUT chain (used by the shim to
  /// inject probes or release held packets without re-filtering them).
  void send_raw(Packet&& p);

  void handle_packet(Packet&& p) override;

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t no_agent_drops() const { return no_agent_drops_; }
  std::uint64_t filter_drops() const { return filter_drops_; }

 private:
  Link* nic_ = nullptr;
  std::unordered_map<std::uint16_t, AgentHandler> agents_;
  std::vector<PacketFilter*> filters_;
  std::uint64_t delivered_ = 0;
  std::uint64_t no_agent_drops_ = 0;
  std::uint64_t filter_drops_ = 0;
};

}  // namespace hwatch::net
