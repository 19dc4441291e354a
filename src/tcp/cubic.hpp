// CUBIC congestion control (Ha, Rhee, Xu — RFC 8312), the Linux default
// since 2.6.19 and therefore the most likely "tenant's preferred TCP"
// in the paper's multi-tenant argument (the paper names Cubic alongside
// NewReno as the window-halving flavours DCTCP must coexist with).
//
// Congestion avoidance follows the cubic curve
//     W(t) = C (t - K)^3 + W_max,     K = cbrt(W_max (1 - beta) / C)
// anchored at the window before the last reduction, with the standard
// TCP-friendly lower bound; reductions multiply by beta = 0.7 instead
// of 0.5.  Slow start, recovery machinery and ECN semantics come from
// the base sender (classic ECE handling applies beta here too).
#pragma once

#include "tcp/sender.hpp"

namespace hwatch::tcp {

struct CubicParams {
  double c = 0.4;      // scaling constant (segments/s^3)
  double beta = 0.7;   // multiplicative decrease factor
};

class CubicSender : public TcpSender {
 public:
  CubicSender(net::Network& net, net::Host& host, std::uint16_t port,
              net::NodeId dst_node, std::uint16_t dst_port,
              TcpConfig config, CubicParams params = {})
      : TcpSender(net, host, port, dst_node, dst_port, config),
        params_(params) {}

  std::string transport_name() const override { return "cubic"; }

 protected:
  void grow_window(std::uint64_t newly_acked) override;
  std::uint64_t ssthresh_after_loss() override;
  void on_ecn_feedback(const net::Packet& ack,
                       std::uint64_t newly_acked) override;

 private:
  /// Registers a multiplicative decrease: anchors W_max and starts a
  /// new cubic epoch.
  void enter_reduction();
  double cubic_target_segments(double t_seconds) const;

  CubicParams params_;
  double w_max_ = 0;                      // segments
  sim::TimePs epoch_start_ = sim::kTimeNever;
  double k_seconds_ = 0;
  // TCP-friendly region estimate (RFC 8312 section 4.2).
  double w_est_ = 0;
  std::uint64_t acked_since_epoch_ = 0;
  std::uint64_t ecn_reduce_until_ = 0;
};

}  // namespace hwatch::tcp
