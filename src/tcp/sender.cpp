#include "tcp/sender.hpp"

#include <cassert>
#include <stdexcept>

namespace phi::tcp {

TcpSender::TcpSender(sim::Scheduler& sched, sim::Node& local,
                     sim::NodeId dst, sim::FlowId flow,
                     std::unique_ptr<CongestionControl> cc)
    : sched_(sched), node_(local), dst_(dst), flow_(flow),
      cc_(std::move(cc)) {
  if (!cc_) throw std::invalid_argument("TcpSender needs a policy");
  node_.attach(flow_, this);
  // The sampling decision is made once, here, so the steady state pays
  // a register compare per packet instead of a hash. Install the
  // SpanLog (telemetry::set_spans) before constructing senders.
  if (auto* sl = telemetry::spans()) trace_tag_ = sl->trace_of(flow_);
  auto& reg = telemetry::registry();
  ctr_conns_ = &reg.counter("tcp.sender.connections_started");
  ctr_conns_done_ = &reg.counter("tcp.sender.connections_finished");
  ctr_packets_ = &reg.counter("tcp.sender.packets_sent");
  ctr_retransmits_ = &reg.counter("tcp.sender.retransmits");
  ctr_timeouts_ = &reg.counter("tcp.sender.timeouts");
  ctr_loss_events_ = &reg.counter("tcp.sender.loss_events");
  ctr_ecn_cuts_ = &reg.counter("tcp.sender.ecn_cuts");
  ctr_cwnd_cuts_ = &reg.counter("tcp.sender.cwnd_cuts");
}

void TcpSender::trace_state(const char* name) const {
  // State transitions are rare; the flight recorder keeps them so a
  // post-mortem of e.g. an RTO storm has the recent TCP history. `name`
  // is a string literal at every call site (events store the pointer).
  telemetry::instant(telemetry::Category::kTcp, trace_tag_, name,
                     sched_.now(), "cwnd", cc_->window(), "inflight",
                     static_cast<double>(snd_nxt_ - snd_una_));
}

TcpSender::~TcpSender() {
  cancel_rto();
  if (pacing_event_ != 0) sched_.cancel(pacing_event_);
  node_.detach(flow_);
}

void TcpSender::set_cc(std::unique_ptr<CongestionControl> cc) {
  if (active_) throw std::logic_error("set_cc while connection active");
  if (!cc) throw std::invalid_argument("null policy");
  cc_ = std::move(cc);
}

void TcpSender::start_connection(std::int64_t segments, DoneCallback done) {
  if (active_) throw std::logic_error("start_connection while busy");
  if (segments <= 0) throw std::invalid_argument("segments must be > 0");
  active_ = true;
  ++conn_;
  total_ = segments;
  snd_una_ = snd_nxt_ = high_water_ = 0;
  dupacks_ = 0;
  in_recovery_ = false;
  recovery_point_ = 0;
  inflation_ = 0;
  recover_mark_ = -1;
  partial_acks_in_recovery_ = 0;
  ecn_cut_point_ = -1;
  sb_.clear(0);
  next_send_time_ = sched_.now();

  cc_->reset(sched_.now());
  rtt_.reset();

  stats_ = {};
  stats_.flow = flow_;
  stats_.conn = conn_;
  stats_.start = sched_.now();
  stats_.segments = segments;
  rtt_agg_ = {};
  done_ = std::move(done);

  ctr_conns_->add();
  trace_state("tcp.conn_start");
  try_send();
}

void TcpSender::absorb_sack(const sim::Packet& p) {
  for (std::uint8_t i = 0; i < p.sack_count; ++i)
    sb_.absorb(p.sack[i].start, p.sack[i].end);
}

util::Duration TcpSender::rescue_after() const {
  return rtt_.has_sample() ? rtt_.srtt() + rtt_.srtt() / 2
                           : util::seconds(1);
}

void TcpSender::try_send_sack() {
  if (!active_) return;
  const util::Time now = sched_.now();
  const util::Duration rescue = rescue_after();
  // The window is loop-invariant: nothing inside the loop feeds the
  // congestion controller.
  const double wnd = cc_->window();
  // Burst limiter (like Linux's tcp_max_burst): one ACK event may release
  // at most a handful of packets. When SACK coverage collapses the pipe
  // estimate all at once, this keeps the retransmission wave ACK-clocked
  // instead of dumping a whole window into the bottleneck queue.
  int burst_budget = 8;
  while (static_cast<double>(sb_.pipe(snd_nxt_, now, rescue)) < wnd &&
         burst_budget-- > 0) {
    const util::Duration gap = cc_->min_send_gap(now);
    if (gap > 0 && now < next_send_time_) {
      if (pacing_event_ == 0 || !sched_.pending(pacing_event_)) {
        pacing_event_ = sched_.schedule_at(next_send_time_, [this] {
          pacing_event_ = 0;
          try_send();
        });
      }
      return;
    }
    // Retransmit the lowest outstanding hole first; otherwise new data.
    const std::int64_t hole =
        in_recovery_ ? sb_.next_hole(now, rescue) : -1;
    if (hole >= 0) {
      sb_.mark_rexmit(hole, now);
      send_segment(hole);
    } else if (snd_nxt_ < total_) {
      send_segment(snd_nxt_);
      ++snd_nxt_;
      high_water_ = std::max(high_water_, snd_nxt_);
    } else {
      return;
    }
    if (gap > 0) next_send_time_ = now + gap;
  }
}

void TcpSender::try_send() {
  if (!active_) return;
  if (sack_) {
    try_send_sack();
    return;
  }
  const util::Time now = sched_.now();
  const double wnd = cc_->window() + static_cast<double>(inflation_);
  while (snd_nxt_ < total_ &&
         static_cast<double>(segments_in_flight()) < wnd) {
    // Pacing (Remy): respect the policy's minimum inter-send gap.
    const util::Duration gap = cc_->min_send_gap(now);
    if (gap > 0 && now < next_send_time_) {
      if (pacing_event_ == 0 || !sched_.pending(pacing_event_)) {
        pacing_event_ = sched_.schedule_at(next_send_time_, [this] {
          pacing_event_ = 0;
          try_send();
        });
      }
      return;
    }
    send_segment(snd_nxt_);
    ++snd_nxt_;
    high_water_ = std::max(high_water_, snd_nxt_);
    if (gap > 0) next_send_time_ = now + gap;
  }
}

void TcpSender::send_segment(std::int64_t seq) {
  sim::Packet p;
  p.src = node_.id();
  p.dst = dst_;
  p.flow = flow_;
  p.conn = conn_;
  p.seq = seq;
  p.is_ack = false;
  p.fin = (seq == total_ - 1);
  p.size_bytes = sim::kSegmentBytes;
  p.sent_at = sched_.now();
  p.priority = static_cast<std::uint16_t>(priority_);
  p.ect = ecn_;
  p.trace = trace_tag_;
  ++stats_.packets_sent;
  ctr_packets_->add();
  if (seq < high_water_ && seq < snd_nxt_) {
    ++stats_.retransmits;
    ctr_retransmits_->add();
  }
  node_.send(p);
  // Arm (don't restart) the retransmit timer: it tracks the oldest
  // outstanding data and is reset on ACK progress, not on transmissions.
  if (rto_event_ == 0) arm_rto();
}

void TcpSender::on_packet(const sim::Packet& p) {
  if (!active_ || !p.is_ack || p.conn != conn_) return;  // stale epoch
  on_ack(p);
}

void TcpSender::on_ack(const sim::Packet& p) {
  const util::Time now = sched_.now();
  // ECN: an echoed CE mark is a congestion signal equivalent to a loss,
  // minus the retransmission; react at most once per window of data.
  if (ecn_ && p.ece && !in_recovery_ && snd_una_ > ecn_cut_point_) {
    ecn_cut_point_ = snd_nxt_;
    ++stats_.ecn_signals;
    ctr_ecn_cuts_->add();
    ctr_cwnd_cuts_->add();
    cc_->on_loss_event(now, snd_nxt_ - snd_una_);
    trace_state("tcp.ecn_cut");
  }
  double rtt_s = 0.0;
  if (p.echo > 0) {
    const util::Duration sample = now - p.echo;
    rtt_.add_sample(sample);
    rtt_s = util::to_seconds(sample);
    rtt_agg_.add(rtt_s);
  }
  if (sack_) absorb_sack(p);

  if (p.ack > snd_una_) {
    const std::int64_t newly = p.ack - snd_una_;
    snd_una_ = p.ack;
    lifetime_acked_ += newly;
    // After a timeout's go-back-N, ACKs for pre-timeout data can overtake
    // the rewound send point; never transmit below the cumulative ACK.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    dupacks_ = 0;
    rtt_.clear_backoff();
    if (sack_) sb_.advance(snd_una_);
    bool rearm = true;
    if (in_recovery_) {
      if (snd_una_ >= recovery_point_) {
        in_recovery_ = false;  // full ACK: recovery complete
        inflation_ = 0;
        sb_.clear_rexmits();
      } else if (sack_) {
        // Scoreboard-driven recovery: retransmissions are selected by
        // try_send_sack(); partial ACKs just restart the timer.
      } else {
        // Partial ACK: the next hole was also lost — retransmit it.
        // Deflate the inflated window by the data acked, plus one segment
        // for the retransmission leaving the network (RFC 6582 §3.2).
        inflation_ = std::max<std::int64_t>(inflation_ - newly, 0) + 1;
        send_segment(snd_una_);
        // "Impatient": only the first partial ACK restarts the retransmit
        // timer, so heavy multi-loss windows fall back to a timeout (and
        // go-back-N) instead of draining one hole per RTT.
        if (partial_acks_in_recovery_++ > 0) rearm = false;
      }
    } else {
      partial_acks_in_recovery_ = 0;
      cc_->on_ack(newly, rtt_s, now);
    }
    if (snd_una_ >= total_) {
      finish();
      return;
    }
    if (rearm) arm_rto();
  } else if (p.ack == snd_una_ && snd_nxt_ > snd_una_) {
    ++dupacks_;
    if (in_recovery_) {
      if (!sack_) ++inflation_;  // one more segment has left the network
    } else if (sack_) {
      // RFC 6675-style trigger: enough SACKed segments above the
      // cumulative ACK imply a hole was lost.
      if (sb_.sacked_count() >= dupack_threshold_ &&
          snd_una_ > recover_mark_) {
        in_recovery_ = true;
        recovery_point_ = snd_nxt_;
        sb_.clear_rexmits();
        ++stats_.loss_events;
        ctr_loss_events_->add();
        ctr_cwnd_cuts_->add();
        cc_->on_loss_event(sched_.now(), snd_nxt_ - snd_una_);
        trace_state("tcp.sack_recovery");
      }
    } else if (dupacks_ >= dupack_threshold_ && snd_una_ > recover_mark_) {
      enter_recovery();
    }
  }
  try_send();
}

void TcpSender::enter_recovery() {
  in_recovery_ = true;
  partial_acks_in_recovery_ = 0;
  recovery_point_ = snd_nxt_;
  inflation_ = dupacks_;
  ++stats_.loss_events;
  ctr_loss_events_->add();
  ctr_cwnd_cuts_->add();
  cc_->on_loss_event(sched_.now(), snd_nxt_ - snd_una_);
  trace_state("tcp.fast_retransmit");
  send_segment(snd_una_);
}

void TcpSender::arm_rto() {
  cancel_rto();
  rto_event_ = sched_.schedule_in(rtt_.rto(), [this] {
    rto_event_ = 0;
    on_rto();
  });
}

void TcpSender::cancel_rto() {
  if (rto_event_ != 0) {
    sched_.cancel(rto_event_);
    rto_event_ = 0;
  }
}

void TcpSender::on_rto() {
  if (!active_) return;
  ++stats_.timeouts;
  ctr_timeouts_->add();
  ctr_cwnd_cuts_->add();
  rtt_.backoff();
  cc_->on_timeout(sched_.now(), snd_nxt_ - snd_una_);
  trace_state("tcp.rto");
  // Go-back-N: rewind and let slow start rediscover the path. Remember
  // the pre-timeout high water mark so echo duplicate ACKs from the
  // resent segments cannot trigger spurious fast retransmits.
  recover_mark_ = high_water_;
  snd_nxt_ = snd_una_;
  dupacks_ = 0;
  in_recovery_ = false;
  inflation_ = 0;
  sb_.clear(snd_una_);
  arm_rto();
  try_send();
}

void TcpSender::finish() {
  cancel_rto();
  if (pacing_event_ != 0) {
    sched_.cancel(pacing_event_);
    pacing_event_ = 0;
  }
  active_ = false;
  stats_.end = sched_.now();
  stats_.min_rtt_s = rtt_agg_.count() ? rtt_agg_.min() : 0.0;
  stats_.mean_rtt_s = rtt_agg_.mean();
  stats_.rtt_samples = rtt_agg_.count();
  ctr_conns_done_->add();
  // One complete span for the whole connection, closing the causal
  // chain: adopt -> conn_start -> ... -> conn span end.
  telemetry::span(telemetry::Category::kTcp, trace_tag_, "tcp.conn",
                  stats_.start, stats_.end, "segments",
                  static_cast<double>(stats_.segments), "retransmits",
                  static_cast<double>(stats_.retransmits));
  if (done_) {
    // Move the callback out first: it commonly starts the next connection,
    // which overwrites done_.
    auto cb = std::move(done_);
    cb(stats_);
  }
}

}  // namespace phi::tcp
