// Multipath TCP extension (the paper's Section IV-F future work).
//
// MPTCP lets one logical connection use several TCP subflows, each with
// its own 4-tuple so ECMP fabrics spread them over distinct paths.  The
// paper observes that "since every connection establishment in MPTCP
// relies on TCP, HWatch logic can be directly applied": each subflow's
// SYN is held, probed, and window-managed by the hypervisor shim
// independently, with no MPTCP-specific code in the shim at all — this
// module plus its tests demonstrate exactly that.
//
// Simplifications vs RFC 8684: subflows are opened concurrently rather
// than one by one with MP_JOIN binding, and the scheduler is a static
// equal-bytes stripe (sufficient for path-diversity experiments; a
// dynamic scheduler would only shift load between subflows).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/unique_function.hpp"
#include "tcp/connection.hpp"

namespace hwatch::tcp {

struct MultipathConfig {
  std::uint32_t subflows = 2;
  Transport transport = Transport::kNewReno;
  TcpConfig tcp;
};

class MultipathConnection {
 public:
  /// Subflow i binds src port base_src_port+i and dst port
  /// base_dst_port+i.
  MultipathConnection(net::Network& net, net::Host& src, net::Host& dst,
                      std::uint16_t base_src_port,
                      std::uint16_t base_dst_port,
                      const MultipathConfig& config);

  /// Starts the transfer, striping `total_bytes` equally over the
  /// subflows (remainder to the first).  kUnlimited makes every subflow
  /// long-lived.
  void start(std::uint64_t total_bytes);

  using CompletionCallback =
      sim::UniqueFunction<void(const MultipathConnection&)>;
  void set_on_complete(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  TcpConnection& subflow(std::size_t i) { return *subflows_[i]; }
  const TcpConnection& subflow(std::size_t i) const { return *subflows_[i]; }

  /// Complete when every subflow's FIN is acked.
  bool complete() const { return completed_ == subflows_.size(); }

  /// Connection-level FCT: start() to the last subflow's completion.
  sim::TimePs fct() const;

  /// Aggregate payload bytes acked across subflows.
  std::uint64_t bytes_acked() const;

  /// Sum of subflow sink goodputs (the MPTCP aggregate bandwidth).
  double aggregate_goodput_bps() const;

  std::uint64_t total_retransmits() const;
  std::uint64_t total_timeouts() const;

 private:
  std::vector<std::unique_ptr<TcpConnection>> subflows_;
  std::size_t completed_ = 0;
  sim::TimePs start_time_ = sim::kTimeNever;
  sim::TimePs complete_time_ = sim::kTimeNever;
  CompletionCallback on_complete_;
  sim::SimContext* ctx_ = nullptr;
  bool started_ = false;
};

}  // namespace hwatch::tcp
