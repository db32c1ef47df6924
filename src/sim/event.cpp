#include "sim/event.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

namespace phi::sim {

namespace {
/// Below this size the wheel is too small for dead entries to matter;
/// skipping compaction keeps the common tiny-schedule case allocation-free.
constexpr std::size_t kCompactFloor = 64;
/// Tick limit meaning "no horizon": advance() may walk the whole wheel.
constexpr std::int64_t kNoLimit = std::numeric_limits<std::int64_t>::max();
}  // namespace

Scheduler::Scheduler()
    : ctr_scheduled_(
          &telemetry::registry().counter("sim.scheduler.events_scheduled")),
      ctr_executed_(
          &telemetry::registry().counter("sim.scheduler.events_executed")),
      ctr_cancelled_(
          &telemetry::registry().counter("sim.scheduler.events_cancelled")),
      ctr_compactions_(
          &telemetry::registry().counter("sim.scheduler.compactions")),
      entries_gauge_(&telemetry::registry().gauge("sim.scheduler.heap_size")),
      due_gauge_(&telemetry::registry().gauge("sim.scheduler.due_size")),
      occupied_gauge_(&telemetry::registry().gauge(
          "sim.scheduler.wheel_occupied_buckets")) {
  for (Level& l : levels_) l.head.fill(-1);
}

std::int32_t Scheduler::alloc_node() {
  if (!node_free_.empty()) {
    const std::int32_t n = node_free_.back();
    node_free_.pop_back();
    return n;
  }
  arena_.emplace_back();
  return static_cast<std::int32_t>(arena_.size() - 1);
}

void Scheduler::bucket_push(Level& l, std::size_t idx, const Entry& e) {
  const std::int32_t n = alloc_node();
  arena_[n].e = e;
  arena_[n].next = l.head[idx];
  l.head[idx] = n;
  set_bit(l, idx);
}

std::size_t Scheduler::next_bit(const Level& l, std::int64_t after) noexcept {
  const std::size_t start = static_cast<std::size_t>(after + 1);
  if (start >= kWheelSlots) return kWheelSlots;
  std::size_t w = start >> 6;
  std::uint64_t word = l.bitmap[w] & (~std::uint64_t{0} << (start & 63));
  for (;;) {
    if (word != 0)
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
    if (++w == kBitmapWords) return kWheelSlots;
    word = l.bitmap[w];
  }
}

void Scheduler::due_grow() {
  const std::size_t cap = due_.empty() ? kDueInitialCap : due_.size() * 2;
  std::vector<Entry> next(cap);
  for (std::size_t i = 0; i < due_count_; ++i) next[i] = due_at(i);
  due_ = std::move(next);
  due_head_ = 0;
  due_mask_ = cap - 1;
}

void Scheduler::due_push(const Entry& e) {
  if (due_count_ == due_.size()) due_grow();
  const std::size_t mask = due_mask_;
  // Band structure of simulator deadlines: per serialization a link
  // schedules tx-complete (soon) and delivery (after propagation), so
  // inserts cluster near the front or near the back of the sorted
  // window. Catch both ends O(1), then shift the shorter side.
  if (due_count_ == 0 || e > due_back()) {
    due_[(due_head_ + due_count_) & mask] = e;
    ++due_count_;
    return;
  }
  if (due_front() > e) {
    due_head_ = (due_head_ - 1) & mask;
    due_[due_head_] = e;
    ++due_count_;
    return;
  }
  // First logical index whose entry orders after e.
  std::size_t lo = 0, hi = due_count_;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (due_at(mid) > e)
      hi = mid;
    else
      lo = mid + 1;
  }
  if (lo <= due_count_ - lo) {
    // Slide the front segment one slot toward the head.
    due_head_ = (due_head_ - 1) & mask;
    ++due_count_;
    for (std::size_t i = 0; i < lo; ++i) due_at(i) = due_at(i + 1);
  } else {
    // Slide the back segment one slot toward the tail.
    ++due_count_;
    for (std::size_t i = due_count_ - 1; i > lo; --i)
      due_at(i) = due_at(i - 1);
  }
  due_at(lo) = e;
}

void Scheduler::due_erase(std::size_t p) {
  if (p < due_count_ - 1 - p) {
    for (std::size_t i = p; i > 0; --i) due_at(i) = due_at(i - 1);
    due_head_ = (due_head_ + 1) & due_mask_;
  } else {
    for (std::size_t i = p; i + 1 < due_count_; ++i) due_at(i) = due_at(i + 1);
  }
  if (--due_count_ == 0) due_head_ = 0;
}

void Scheduler::place(const Entry& e) {
  if (entries_ == due_size()) {
    // Direct mode: the wheel and overflow are empty, so the sorted run
    // buffer can hold any deadline without breaking pop order — and for
    // a near-empty schedule it beats the bucket machinery outright.
    // This branch is checked first because it is the whole scheduler for
    // timer-churn workloads; a stale cur_tick_ cannot matter here (the
    // run buffer holds any deadline), and every wheel-bound path below
    // re-anchors the position itself. An empty scheduler (entries_ == 0)
    // always lands here, so post-idle schedules never consult the wheel.
    if (due_size() < kDirectMax) {
      due_push(e);
      return;
    }
    spill_due();  // graduated: hand the far deadlines to the wheel
                  // (catches cur_tick_ up to the clock first)
  }
  const std::int64_t tick = e.time >> kTickShift;
  if (tick <= cur_tick_) {
    due_push(e);
    return;
  }
  place_wheel(e);
}

void Scheduler::place_wheel(const Entry& e) {
  // A level accepts the entry iff the deadline falls inside the level's
  // current rotation; each bucket then holds exactly one tick (level 0)
  // or one child rotation (outer levels), so scans never wrap.
  std::int64_t t = e.time >> kTickShift;
  std::int64_t c = cur_tick_;
  for (int level = 0; level < kLevels; ++level) {
    if ((t >> kSlotBits) == (c >> kSlotBits)) {
      bucket_push(levels_[level], static_cast<std::size_t>(t & kSlotMask), e);
      return;
    }
    t >>= kSlotBits;
    c >>= kSlotBits;
  }
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
}

void Scheduler::spill_due() {
  if (cur_tick_ < (now_ >> kTickShift)) cur_tick_ = now_ >> kTickShift;
  // Ascending order: the entries to keep (ticks at or before the wheel
  // position) form a prefix of the ring.
  std::size_t keep = 0;
  while (keep < due_count_ && (due_at(keep).time >> kTickShift) <= cur_tick_)
    ++keep;
  for (std::size_t i = keep; i < due_count_; ++i) {
    const Entry& e = due_at(i);
    if (entry_dead(e))
      --entries_;  // cancelled while buffered: drop instead of migrating
    else
      place_wheel(e);
  }
  due_count_ = keep;
  if (due_count_ == 0) due_head_ = 0;
}

void Scheduler::collect(std::size_t idx) {
  // Only called with the run buffer empty, so the bucket's entries are
  // appended raw and sorted once. Everything collected later belongs to
  // a later tick and orders strictly after, which is what lets the
  // buffer be a sorted vector instead of a heap.
  assert(due_empty());
  due_head_ = 0;  // empty ring: append contiguously from physical 0
  Level& l = levels_[0];
  for (std::int32_t i = l.head[idx]; i != -1;) {
    const std::int32_t next = arena_[i].next;
    const Entry e = arena_[i].e;
    node_free_.push_back(i);
    if (entry_dead(e)) {
      --entries_;
    } else {
      if (due_count_ == due_.size()) due_grow();
      due_[due_count_++] = e;
    }
    i = next;
  }
  l.head[idx] = -1;
  clear_bit(l, idx);
  if (due_count_ > 1)
    std::sort(due_.begin(), due_.begin() + static_cast<std::ptrdiff_t>(due_count_),
              [](const Entry& a, const Entry& b) { return b > a; });
}

void Scheduler::cascade(int level, std::size_t idx) {
  Level& l = levels_[level];
  // place() can only target the due heap or a shallower level here (the
  // wheel position was just moved to this bucket's base), and it draws
  // nodes from the ones this walk frees, so the arena never grows
  // mid-cascade. Copy each entry out before recycling its node.
  for (std::int32_t i = l.head[idx]; i != -1;) {
    const std::int32_t next = arena_[i].next;
    const Entry e = arena_[i].e;
    node_free_.push_back(i);
    if (entry_dead(e))
      --entries_;
    else
      place(e);
    i = next;
  }
  l.head[idx] = -1;
  clear_bit(l, idx);
}

void Scheduler::migrate_overflow() {
  const std::int64_t rot = cur_tick_ >> (kLevels * kSlotBits);
  while (!overflow_.empty() &&
         ((overflow_.front().time >> kTickShift) >> (kLevels * kSlotBits)) ==
             rot) {
    std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
    const Entry e = overflow_.back();
    overflow_.pop_back();
    if (entry_dead(e)) {
      --entries_;
      continue;
    }
    place(e);
  }
}

bool Scheduler::advance(std::int64_t limit_tick) {
  if (entries_ == 0) return false;  // nothing anywhere: skip the scans
  for (;;) {
    // Next occupied level-0 bucket in the current rotation: that bucket
    // IS the next pending tick below the outer levels.
    if (const std::size_t idx = next_bit(levels_[0], cur_tick_ & kSlotMask);
        idx < kWheelSlots) {
      const std::int64_t tick = (cur_tick_ & ~kSlotMask) | idx;
      if (tick > limit_tick) return false;
      cur_tick_ = tick;
      collect(idx);
      if (!due_empty()) return true;
      continue;  // the bucket held only cancelled entries
    }
    // Rotation exhausted: pull the next child rotation down from level 1,
    // then retry (its entries land in level 0 or the due heap).
    if (const std::size_t idx =
            next_bit(levels_[1], (cur_tick_ >> kSlotBits) & kSlotMask);
        idx < kWheelSlots) {
      const std::int64_t tick1 = ((cur_tick_ >> kSlotBits) & ~kSlotMask) | idx;
      if ((tick1 << kSlotBits) > limit_tick) return false;
      cur_tick_ = tick1 << kSlotBits;
      cascade(1, idx);
      if (!due_empty()) return true;
      continue;
    }
    if (const std::size_t idx =
            next_bit(levels_[2], (cur_tick_ >> (2 * kSlotBits)) & kSlotMask);
        idx < kWheelSlots) {
      const std::int64_t tick2 =
          ((cur_tick_ >> (2 * kSlotBits)) & ~kSlotMask) | idx;
      if ((tick2 << (2 * kSlotBits)) > limit_tick) return false;
      cur_tick_ = tick2 << (2 * kSlotBits);
      cascade(2, idx);
      if (!due_empty()) return true;
      continue;
    }
    // Whole wheel empty: jump straight to the earliest far-future timer
    // and pull its level-2 rotation in.
    while (!overflow_.empty() && entry_dead(overflow_.front())) {
      std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
      overflow_.pop_back();
      --entries_;
    }
    if (overflow_.empty()) return false;
    const std::int64_t tick = overflow_.front().time >> kTickShift;
    if (tick > limit_tick) return false;
    cur_tick_ = tick;
    migrate_overflow();
    if (!due_empty()) return true;
  }
}

std::pair<Scheduler::Slot*, EventId> Scheduler::claim_slot() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.live = true;
  ++live_count_;
  return {&s, make_id(s.gen, slot)};
}

EventId Scheduler::schedule_at(Time t, util::SmallFn fn) {
  assert(t >= now_ && "schedule_at: deadline in the past");
  if (t < now_) t = now_;  // clamp: still runs after everything already due
  auto [s, id] = claim_slot();
  s->fn = std::move(fn);
  const std::uint64_t seq = next_seq(EventKind::kCallback);
  s->time = t;
  s->seq = seq;
  place(Entry{t, seq, id, kNullPacket});
  ++entries_;
  ctr_scheduled_->add();
  return id;
}

EventId Scheduler::schedule_delivery_in(Duration d, Link& link,
                                        PacketHandle h) {
  assert(d >= 0 && "schedule_delivery_in: deadline in the past");
  const Time t = d < 0 ? now_ : now_ + d;
  place(Entry{
      t, next_seq(EventKind::kDelivery),
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&link)), h});
  ++entries_;
  ++live_count_;
  ctr_scheduled_->add();
  return 0;
}

EventId Scheduler::schedule_injected_delivery(Duration d, Link& link,
                                              PacketHandle h, Time orig_time,
                                              std::uint32_t orig_intra) {
  assert(d > 0 && "schedule_injected_delivery: deadline not in the future");
  assert(orig_time <= now_ &&
         "schedule_injected_delivery: origin after injection");
  const Time t = now_ + d;
  // The ordering key is the producer's insertion instant, not ours: at
  // an exact deadline tie with a local event this entry sorts by when
  // the serial run would have inserted it (local bit clear keeps the
  // key spaces disjoint).
  const std::uint64_t seq =
      pack_seq_at(order_tick(orig_time),
                  orig_intra < kIntraMax ? orig_intra : kIntraMax,
                  /*local=*/false, EventKind::kDelivery);
  place(Entry{
      t, seq,
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&link)), h});
  ++entries_;
  ++live_count_;
  ctr_scheduled_->add();
  return 0;
}

EventId Scheduler::schedule_tx_complete_in(Duration d, Link& link) {
  assert(d >= 0 && "schedule_tx_complete_in: deadline in the past");
  const Time t = d < 0 ? now_ : now_ + d;
  place(Entry{
      t, next_seq(EventKind::kTxComplete),
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&link)),
      kNullPacket});
  ++entries_;
  ++live_count_;
  ctr_scheduled_->add();
  return 0;
}

bool Scheduler::cancel(EventId id) {
  const Slot* s = slot_of(id);
  if (s == nullptr) return false;
  // In direct mode every pending entry sits in the sorted run buffer,
  // so the cancelled one can be erased on the spot — timer churn
  // (re-armed RTOs) then never accumulates dead entries at all. With
  // the wheel populated, removal stays lazy (compaction sweeps).
  if (entries_ == due_size()) {
    if (due_back().seq == s->seq) {
      // Re-armed timers cancel their newest schedule: it is the last
      // entry more often than not, so skip the search.
      if (--due_count_ == 0) due_head_ = 0;
      --entries_;
    } else {
      // First logical index at the occupant's time, then a linear seq
      // match within that timestamp run.
      std::size_t lo = 0, hi = due_count_;
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (due_at(mid).time < s->time)
          lo = mid + 1;
        else
          hi = mid;
      }
      for (std::size_t p = lo; p < due_count_ && due_at(p).time == s->time;
           ++p) {
        if (due_at(p).seq == s->seq) {
          due_erase(p);
          --entries_;
          break;
        }
      }
    }
  }
  release(static_cast<std::uint32_t>(id));
  ctr_cancelled_->add();
  // Guard inlined: this runs on every cancel, and timer-churn workloads
  // cancel as often as they schedule.
  if (entries_ >= kCompactFloor && entries_ > 3 * live_count_)
    maybe_compact();
  return true;
}

void Scheduler::maybe_compact() {
  // Every held entry whose generation no longer matches its slot is dead
  // (entries for executed events leave the structure immediately, so
  // "dead" == cancelled). Sweep only once they outnumber live ones 2:1.
  if (entries_ < kCompactFloor || entries_ <= 3 * live_count_) return;
  const std::size_t before = entries_;
  const auto dead = [this](const Entry& e) { return entry_dead(e); };
  std::size_t removed = 0;
  for (Level& l : levels_) {
    if (l.occupied == 0) continue;
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
      std::uint64_t word = l.bitmap[w];
      while (word != 0) {
        const std::size_t idx =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        std::int32_t* link = &l.head[idx];
        while (*link != -1) {
          const std::int32_t i = *link;
          if (dead(arena_[i].e)) {
            *link = arena_[i].next;
            node_free_.push_back(i);
            ++removed;
          } else {
            link = &arena_[i].next;
          }
        }
        if (l.head[idx] == -1) clear_bit(l, idx);
      }
    }
  }
  // The in-place sweeps preserve relative order, so the sorted run
  // buffer stays sorted; the overflow heap needs re-heapifying.
  {
    std::size_t w = 0;
    for (std::size_t i = 0; i < due_count_; ++i) {
      const Entry e = due_at(i);
      if (dead(e)) {
        ++removed;
        continue;
      }
      due_at(w++) = e;
    }
    due_count_ = w;
    if (due_count_ == 0) due_head_ = 0;
  }
  {
    const auto it = std::remove_if(overflow_.begin(), overflow_.end(), dead);
    removed += static_cast<std::size_t>(overflow_.end() - it);
    overflow_.erase(it, overflow_.end());
  }
  std::make_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
  entries_ -= removed;
  ctr_compactions_->add();
  entries_gauge_->set(static_cast<double>(entries_));
  telemetry::instant(telemetry::Category::kScheduler, 0, "sched.compact",
                     now_, "before", static_cast<double>(before), "after",
                     static_cast<double>(entries_));
}

bool Scheduler::dispatch(const Entry& e) {
  assert(e.time >= now_);
  if (e.kind() == EventKind::kCallback) {
    Slot* s = slot_of(e.id);
    if (s == nullptr) return false;  // cancelled
    // Move the payload out and vacate the slot before dispatching so the
    // event may reschedule (and even land in the same slot).
    util::SmallFn fn = std::move(s->fn);
    release(static_cast<std::uint32_t>(e.id));
    now_ = e.time;
    ++executed_;
    fn();
    return true;
  }
  now_ = e.time;
  ++executed_;
  --live_count_;  // fast-path events never touched a slot
  if (e.kind() == EventKind::kDelivery)
    detail::link_deliver(*entry_link(e), pool_, e.packet);
  else
    detail::link_tx_complete(*entry_link(e));
  return true;
}

bool Scheduler::step() {
  for (;;) {
    if (due_empty() && !advance(kNoLimit)) return false;
    const Entry e = due_front();
    due_pop_front();
    --entries_;
    if (!dispatch(e)) continue;
    ctr_executed_->add();
    return true;
  }
}

std::uint64_t Scheduler::run_until(Time horizon) {
  if (profile_ != nullptr) return run_until_profiled(horizon);
  const std::int64_t limit_tick = horizon >> kTickShift;
  std::uint64_t ran = 0;
  std::array<PacketHandle, kMaxBatch> burst;
  for (;;) {
    if (due_empty() && !advance(limit_tick)) break;
    const Entry e = due_front();
    if (e.time > horizon) break;
    due_pop_front();
    --entries_;
    // The run buffer is sorted, so executing straight off the front
    // preserves (time, seq) order, and anything a callback schedules
    // mid-drain lands behind the front by sequence number (due_push
    // keeps the buffer sorted).
    if (e.kind() == EventKind::kDelivery) {
      // Same-deadline deliveries on one link collapse into a single
      // burst call. Only same-time runs qualify: a new event can never
      // order before them (times are clamped to >= now, sequence
      // numbers only grow), so the run can be popped wholesale.
      burst[0] = e.packet;
      std::size_t count = 1;
      while (count < kMaxBatch && !due_empty()) {
        const Entry& b = due_front();
        if (b.kind() != EventKind::kDelivery || b.id != e.id ||
            b.time != e.time)
          break;
        burst[count++] = b.packet;
        due_pop_front();
        --entries_;
      }
      assert(e.time >= now_);
      now_ = e.time;
      executed_ += count;
      live_count_ -= count;
      ran += count;
      if (count == 1) {
        // Pull the next packet's pool line while this one is delivered.
        if (!due_empty() && due_front().kind() == EventKind::kDelivery)
          pool_.prefetch(due_front().packet);
        detail::link_deliver(*entry_link(e), pool_, e.packet);
      } else {
        detail::link_deliver_burst(*entry_link(e), pool_, burst.data(), count);
      }
      continue;
    }
    if (dispatch(e)) ++ran;
  }
  if (now_ < horizon) now_ = horizon;
  // Telemetry is batched per run_until rather than per event: a per-event
  // indirect store is measurable on the packet fast path, and scrapes
  // only happen between run_until calls anyway.
  if (ran > 0) ctr_executed_->add(ran);
  entries_gauge_->set(static_cast<double>(entries_));
  due_gauge_->set(static_cast<double>(due_size()));
  occupied_gauge_->set(static_cast<double>(
      levels_[0].occupied + levels_[1].occupied + levels_[2].occupied));
  return ran;
}

std::uint64_t Scheduler::run_until_profiled(Time horizon) {
  using Prof = telemetry::LoopProfile;
  Prof& prof = *profile_;
  const std::uint64_t wall0 = telemetry::profile_clock_ns();
  const std::int64_t limit_tick = horizon >> kTickShift;
  std::uint64_t ran = 0;
  std::array<PacketHandle, kMaxBatch> burst;
  for (;;) {
    if (due_empty()) {
      // Sampled like every other section: a refill often drains only
      // one or two events, so advances are about as frequent as events.
      const bool timed = prof.gate(Prof::kWheelAdvance);
      const std::uint64_t t0 = timed ? telemetry::profile_clock_ns() : 0;
      const bool more = advance(limit_tick);
      prof.count(Prof::kWheelAdvance);
      if (timed) {
        prof.add_time(Prof::kWheelAdvance,
                      telemetry::profile_clock_ns() - t0);
      }
      if (!more) break;
    }
    const Entry e = due_front();
    if (e.time > horizon) break;
    due_pop_front();
    --entries_;
    if (e.kind() == EventKind::kDelivery) {
      burst[0] = e.packet;
      std::size_t count = 1;
      while (count < kMaxBatch && !due_empty()) {
        const Entry& b = due_front();
        if (b.kind() != EventKind::kDelivery || b.id != e.id ||
            b.time != e.time)
          break;
        burst[count++] = b.packet;
        due_pop_front();
        --entries_;
      }
      assert(e.time >= now_);
      now_ = e.time;
      executed_ += count;
      live_count_ -= count;
      ran += count;
      const bool timed = prof.gate(Prof::kDelivery);
      const std::uint64_t t0 = timed ? telemetry::profile_clock_ns() : 0;
      if (count == 1) {
        detail::link_deliver(*entry_link(e), pool_, e.packet);
      } else {
        detail::link_deliver_burst(*entry_link(e), pool_, burst.data(), count);
      }
      prof.count(Prof::kDelivery, count);
      if (timed) {
        prof.add_time(Prof::kDelivery, telemetry::profile_clock_ns() - t0,
                      count);
      }
      continue;
    }
    if (e.kind() == EventKind::kTxComplete) {
      assert(e.time >= now_);
      now_ = e.time;
      ++executed_;
      --live_count_;
      ++ran;
      const bool timed = prof.gate(Prof::kTxComplete);
      const std::uint64_t t0 = timed ? telemetry::profile_clock_ns() : 0;
      detail::link_tx_complete(*entry_link(e));
      prof.count(Prof::kTxComplete);
      if (timed) {
        prof.add_time(Prof::kTxComplete, telemetry::profile_clock_ns() - t0);
      }
      continue;
    }
    // Callback: dispatch()'s slot arm, with the user code timed but the
    // slot bookkeeping left outside the sampled window.
    Slot* s = slot_of(e.id);
    if (s == nullptr) continue;  // cancelled
    util::SmallFn fn = std::move(s->fn);
    release(static_cast<std::uint32_t>(e.id));
    assert(e.time >= now_);
    now_ = e.time;
    ++executed_;
    ++ran;
    const bool timed = prof.gate(Prof::kCallback);
    const std::uint64_t t0 = timed ? telemetry::profile_clock_ns() : 0;
    fn();
    prof.count(Prof::kCallback);
    if (timed) {
      prof.add_time(Prof::kCallback, telemetry::profile_clock_ns() - t0);
    }
  }
  if (now_ < horizon) now_ = horizon;
  if (ran > 0) ctr_executed_->add(ran);
  entries_gauge_->set(static_cast<double>(entries_));
  due_gauge_->set(static_cast<double>(due_size()));
  occupied_gauge_->set(static_cast<double>(
      levels_[0].occupied + levels_[1].occupied + levels_[2].occupied));
  prof.add_wall(telemetry::profile_clock_ns() - wall0);
  return ran;
}

}  // namespace phi::sim
