#include "phi/aggregation.hpp"

#include <algorithm>
#include <utility>

namespace phi::core {

AggregatorServer::AggregatorServer(sim::Scheduler& sched,
                                   ContextService& parent,
                                   AggregatorConfig cfg)
    : sched_(sched), parent_(parent), cfg_(std::move(cfg)) {
  auto& reg = telemetry::registry();
  const telemetry::Labels labels{{"agg", cfg_.name}};
  ctr_lookups_ = &reg.counter("phi.agg.lookups", labels);
  ctr_reports_ = &reg.counter("phi.agg.reports", labels);
  ctr_flushes_ = &reg.counter("phi.agg.flushes", labels);
  ctr_forwarded_ = &reg.counter("phi.agg.forwarded", labels);
  ts_staleness_ = &reg.timeseries("phi.agg.staleness_s", labels);
}

LookupReply AggregatorServer::lookup(const LookupRequest& req) {
  ++lookups_;
  ctr_lookups_->add(1);
  LookupReply reply{};
  const auto it = cache_.find(req.path);
  if (it != cache_.end()) {
    reply = it->second.reply;
    const double age = util::to_seconds(sched_.now() - it->second.at);
    staleness_.add(age);
    ts_staleness_->sample(util::to_seconds(sched_.now()), age);
  } else {
    ++cold_lookups_;
  }
  queue_.lookups.push_back(req);
  enqueue_common();
  return reply;
}

void AggregatorServer::report(const Report& r) {
  ++reports_;
  ctr_reports_->add(1);
  queue_.reports.push_back(r);
  enqueue_common();
}

void AggregatorServer::enqueue_common() {
  if (queue_.reports.size() + queue_.lookups.size() >= cfg_.batch_max) {
    flush();
    return;
  }
  // Lazy interval timer: armed on the first message of a batch, so a
  // quiescent aggregator keeps nothing on the scheduler.
  if (pending_flush_ == 0) {
    pending_flush_ = sched_.schedule_in(cfg_.flush_interval, [this] {
      pending_flush_ = 0;
      flush();
    });
  }
}

void AggregatorServer::flush() {
  if (pending_flush_ != 0) {
    sched_.cancel(pending_flush_);
    pending_flush_ = 0;
  }
  if (queue_.reports.empty() && queue_.lookups.empty()) return;
  ++flushes_;
  ctr_flushes_->add(1);
  if (in_flight_ == ring_.size()) {
    // Full: lay the ring out in FIFO order from slot 0, then add a slot.
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    ring_.emplace_back();
  }
  // The free slot holds a cleared batch: it becomes the next queue_.
  std::swap(queue_, ring_[(head_ + in_flight_) % ring_.size()]);
  ++in_flight_;
  // All batches share one uplink delay, so FIFO delivery order holds.
  sched_.schedule_in(cfg_.uplink_delay, [this] { deliver(); });
}

void AggregatorServer::deliver() {
  Batch& b = ring_[head_];
  for (const Report& r : b.reports) {
    parent_.report(r);
    ++forwarded_;
  }
  for (LookupRequest lr : b.lookups) {
    lr.at = sched_.now();  // the root sees the forwarding time
    Snapshot& snap = cache_[lr.path];
    snap.reply = parent_.lookup(lr);
    snap.at = sched_.now();
    ++forwarded_;
  }
  ctr_forwarded_->add(b.reports.size() + b.lookups.size());
  b.reports.clear();
  b.lookups.clear();
  head_ = (head_ + 1) % ring_.size();
  --in_flight_;
}

CongestionContext AggregatorServer::context(PathKey path) const {
  const auto it = cache_.find(path);
  return it != cache_.end() ? it->second.reply.context : CongestionContext{};
}

}  // namespace phi::core
