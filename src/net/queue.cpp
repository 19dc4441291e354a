#include "net/queue.hpp"

#include <algorithm>
#include <cmath>

namespace hwatch::net {

EnqueueOutcome QueueDiscipline::enqueue(Packet&& p, sim::TimePs now) {
  const bool overflow = would_overflow(p) && !make_room(p);
  const EnqueueOutcome outcome =
      overflow ? EnqueueOutcome::kDropped : classify(p, now);
  if (outcome == EnqueueOutcome::kDropped) {
    ++stats_.dropped;
    stats_.bytes_dropped += p.size_bytes();
    if (p.kind == PacketKind::kProbe) {
      ++stats_.dropped_probes;
    } else if (p.is_data()) {
      ++stats_.dropped_data;
    } else {
      ++stats_.dropped_ctrl;
    }
    if (incidents_) incidents_->on_queue_drop(incident_queue_, now);
    return outcome;
  }
  if (outcome == EnqueueOutcome::kAcceptedMarked) {
    p.ip.ecn = Ecn::kCe;
    ++stats_.ecn_marked;
  }
  p.enqueue_time = now;
  bytes_ += p.size_bytes();
  ++stats_.enqueued;
  stats_.bytes_enqueued += p.size_bytes();
  const bool high = service_class(p) > 0;
  sim::PoolPtr<Packet> slot = pool_->make<Packet>(std::move(p));
  if (high) {
    // Strict priority: behind the queued high-class packets, ahead of
    // every best-effort one.
    fifo_.insert(high_count_, std::move(slot));
    ++high_count_;
  } else {
    fifo_.push_back(std::move(slot));
  }
  stats_.max_len_pkts = std::max<std::uint64_t>(stats_.max_len_pkts,
                                                fifo_.size());
  stats_.max_len_bytes = std::max(stats_.max_len_bytes, bytes_);
  if (depth_hist_) depth_hist_->record(static_cast<double>(fifo_.size()));
  if (incidents_) incidents_->on_queue_depth(incident_queue_, fifo_.size(), now);
  return outcome;
}

sim::PoolPtr<Packet> QueueDiscipline::dequeue(sim::TimePs now) {
  if (fifo_.empty()) return {};
  sim::PoolPtr<Packet> p = fifo_.pop_front();
  if (high_count_ > 0 && service_class(*p) > 0) --high_count_;
  bytes_ -= p->size_bytes();
  ++stats_.dequeued;
  on_dequeue(*p, now);
  if (incidents_) incidents_->on_queue_depth(incident_queue_, fifo_.size(), now);
  return p;
}

bool QueueDiscipline::evict_best_effort_tail() {
  for (std::size_t i = fifo_.size(); i > 0; --i) {
    const Packet& victim = *fifo_.at(i - 1);
    if (service_class(victim) == 0) {
      ++stats_.dropped;
      stats_.bytes_dropped += victim.size_bytes();
      if (victim.kind == PacketKind::kProbe) {
        ++stats_.dropped_probes;
      } else if (victim.is_data()) {
        ++stats_.dropped_data;
      } else {
        ++stats_.dropped_ctrl;
      }
      bytes_ -= victim.size_bytes();
      fifo_.erase(i - 1);
      return true;
    }
  }
  return false;
}

EnqueueOutcome DropTailQueue::classify(const Packet& p, sim::TimePs now) {
  (void)p;
  (void)now;
  return EnqueueOutcome::kAccepted;  // capacity enforced by the base
}

EnqueueOutcome DctcpThresholdQueue::classify(const Packet& p,
                                             sim::TimePs now) {
  (void)now;
  // Step marking on the instantaneous queue length, as recommended for
  // DCTCP: mark when the queue (including this arrival) exceeds K.
  const bool above_k = k_bytes_ != QueueLimits::kUnlimited
                           ? len_bytes() + p.size_bytes() > k_bytes_
                           : len_packets() + 1 > k_pkts_;
  if (above_k && ecn_capable(p.ip.ecn)) {
    return EnqueueOutcome::kAcceptedMarked;
  }
  return EnqueueOutcome::kAccepted;
}

RedQueue::RedQueue(std::uint64_t capacity_pkts, const RedConfig& cfg,
                   std::uint64_t seed)
    : QueueDiscipline(capacity_pkts), cfg_(cfg), prng_state_(seed | 1) {}

RedQueue::RedQueue(QueueLimits limits, const RedConfig& cfg,
                   std::uint64_t seed)
    : QueueDiscipline(limits), cfg_(cfg), prng_state_(seed | 1) {}

double RedQueue::effective_len() const {
  if (cfg_.byte_mode) {
    return static_cast<double>(len_bytes()) /
           static_cast<double>(cfg_.mean_pkt_bytes);
  }
  return static_cast<double>(len_packets());
}

double RedQueue::next_uniform() {
  // xorshift64*: local deterministic stream, independent of scenario RNG
  // (a real switch's RED is independent of the hosts' randomness too).
  prng_state_ ^= prng_state_ >> 12;
  prng_state_ ^= prng_state_ << 25;
  prng_state_ ^= prng_state_ >> 27;
  const std::uint64_t x = prng_state_ * 0x2545F4914F6CDD1Dull;
  return static_cast<double>(x >> 11) / 9007199254740992.0;  // [0,1)
}

void RedQueue::update_avg(sim::TimePs now) {
  if (idle_) {
    // Decay the average as if `m` minimum-size packets had been serviced
    // during the idle period (Floyd's idle adjustment).
    const double idle_span = static_cast<double>(now - idle_since_);
    const double m =
        idle_span / static_cast<double>(std::max<sim::TimePs>(
                        cfg_.mean_pkt_time, 1));
    // Floyd's idle decay is defined via pow; the reproduction's
    // reference platform is x86-64/glibc.  hwlint: allow(fp-determinism)
    avg_ *= std::pow(1.0 - cfg_.weight, m);
    idle_ = false;
  } else {
    avg_ = (1.0 - cfg_.weight) * avg_ + cfg_.weight * effective_len();
  }
}

double RedQueue::mark_probability() const {
  if (avg_ < cfg_.min_th_pkts) return 0.0;
  if (avg_ < cfg_.max_th_pkts) {
    return cfg_.max_p * (avg_ - cfg_.min_th_pkts) /
           (cfg_.max_th_pkts - cfg_.min_th_pkts);
  }
  if (cfg_.gentle && avg_ < 2.0 * cfg_.max_th_pkts) {
    // Ramp linearly from max_p at max_th to 1 at 2*max_th.
    return cfg_.max_p +
           (1.0 - cfg_.max_p) * (avg_ - cfg_.max_th_pkts) / cfg_.max_th_pkts;
  }
  return 1.0;
}

EnqueueOutcome RedQueue::classify(const Packet& p, sim::TimePs now) {
  update_avg(now);

  double pb = mark_probability();
  // Byte mode (ns-2 RED): a packet's marking probability is proportional
  // to its share of the mean packet size, so small control packets and
  // probes are rarely chosen.
  if (cfg_.byte_mode && pb > 0.0 && pb < 1.0) {
    pb *= static_cast<double>(p.size_bytes()) /
          static_cast<double>(cfg_.mean_pkt_bytes);
    pb = std::min(pb, 1.0);
  }
  bool mark = false;
  if (pb >= 1.0) {
    mark = true;
  } else if (pb > 0.0) {
    ++count_;
    // Uniformize inter-mark gaps: p_a = p_b / (1 - count * p_b).
    const double denom = 1.0 - static_cast<double>(count_) * pb;
    const double pa = denom <= 0.0 ? 1.0 : std::min(1.0, pb / denom);
    mark = next_uniform() < pa;
  } else {
    count_ = -1;
  }

  if (!mark) return EnqueueOutcome::kAccepted;
  count_ = 0;
  if (cfg_.ecn && ecn_capable(p.ip.ecn)) {
    return EnqueueOutcome::kAcceptedMarked;
  }
  return EnqueueOutcome::kDropped;
}

void RedQueue::on_dequeue(const Packet& p, sim::TimePs now) {
  (void)p;
  if (empty()) {
    idle_ = true;
    idle_since_ = now;
  }
}

QdiscFactory make_droptail_factory(std::uint64_t capacity_pkts) {
  return [capacity_pkts] {
    return std::make_unique<DropTailQueue>(capacity_pkts);
  };
}

QdiscFactory make_dctcp_factory(std::uint64_t capacity_pkts,
                                std::uint64_t mark_k_pkts) {
  return [capacity_pkts, mark_k_pkts] {
    return std::make_unique<DctcpThresholdQueue>(capacity_pkts, mark_k_pkts);
  };
}

QdiscFactory make_red_factory(std::uint64_t capacity_pkts, RedConfig cfg) {
  return [capacity_pkts, cfg] {
    return std::make_unique<RedQueue>(capacity_pkts, cfg);
  };
}

}  // namespace hwatch::net
