#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>

#include "util/log.h"

namespace matrix {

namespace {

/// Reserves geometric capacity before growing a dense id-indexed table to
/// cover `index`.  Ids arrive in increasing order (attach order, client
/// fan-out), so relying on the library's resize growth policy would make
/// table growth quadratic at 10k-node scale on implementations that size
/// exactly.
template <typename T>
void reserve_for_index(std::vector<T>& table, std::size_t index) {
  if (index < table.capacity()) return;
  std::size_t cap = table.capacity() < 16 ? 16 : table.capacity() * 2;
  while (cap <= index) cap *= 2;
  table.reserve(cap);
}

constexpr std::uint64_t kRngSalt = 0xA5A5A5A5DEADBEEFULL;
constexpr std::uint64_t kShardSeedStride = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

}  // namespace

thread_local Network::Shard* Network::tls_shard_ = nullptr;

bool resolve_shard_threads(bool config_default) {
  const char* env = std::getenv("MATRIX_SHARD_THREADS");
  if (env == nullptr || *env == '\0') return config_default;
  const std::string value(env);
  if (value == "0" || value == "off" || value == "false" || value == "no") {
    return false;
  }
  return true;
}

Network::Network(std::uint64_t seed) : seed_(seed) {
  // Shard 0 seeds exactly like the historical serial engine, so one-shard
  // runs draw the identical RNG stream.
  shards_.push_back(std::make_unique<Shard>(0, seed ^ kRngSalt));
  shards_.front()->outbox.resize(1);
  // Sim-time-stamp all log output while this network lives (last network
  // constructed wins; owner matching in clear_clock keeps interleaved
  // lifetimes safe).
  Logger::instance().set_clock(this, [](const void* owner) {
    return static_cast<const Network*>(owner)->now();
  });
}

Network::~Network() {
  stop_workers();
  Logger::instance().clear_clock(this);
}

void Network::configure_shards(std::size_t count, bool use_threads) {
  if (count == 0) count = 1;
  // Sharding must be decided before any topology exists: shard assignment
  // happens at attach, and the one-shard fast paths assume it never changes
  // mid-run.
  assert(nodes_.empty() && "configure_shards must precede attach");
  assert(shards_.front()->events.empty() && control_queue_.empty());
  stop_workers();
  shards_.clear();
  const std::uint64_t base = seed_ ^ kRngSalt;
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        static_cast<std::uint32_t>(i),
        i == 0 ? base : base + kShardSeedStride * static_cast<std::uint64_t>(i)));
  }
  for (auto& shard : shards_) shard->outbox.resize(count);
  use_threads_ = count > 1 && resolve_shard_threads(use_threads);
  if (tracer_.enabled() && sharded()) {
    for (auto& shard : shards_) shard->tracer.defer_like(tracer_);
  }
}

void Network::set_rebalance(double threshold, std::uint64_t interval_events) {
  rebalance_threshold_ = threshold;
  rebalance_interval_events_ = interval_events;
}

void Network::define_colocated_group(std::vector<NodeId> nodes) {
  ColocatedGroup group;
  group.nodes = std::move(nodes);
  groups_.push_back(std::move(group));
}

bool Network::force_rebalance() { return evaluate_rebalance(true); }

void Network::enable_tracing(obs::TraceOptions options) {
  tracer_.enable(options);
  if (sharded()) {
    for (auto& shard : shards_) shard->tracer.defer_like(tracer_);
  }
}

Network::NodeState& Network::ensure_state(NodeId id) {
  const std::size_t index = id.value();
  if (index >= nodes_.size()) {
    reserve_for_index(nodes_, index);
    nodes_.resize(index + 1);
  }
  return nodes_[index];
}

Network::LinkRecord& Network::link_record(NodeId src, NodeId dst) {
  NodeState& state = ensure_state(src);
  // The record lives in the SOURCE owner's shard store: only that shard
  // (or the main thread while workers idle) ever touches it.
  std::vector<LinkRecord>& store = shards_[state.shard]->link_records;
  const std::size_t d = dst.value();
  if (state.out.size() <= d) {
    reserve_for_index(state.out, d);
    state.out.resize(d + 1, -1);
  }
  std::int32_t slot = state.out[d];
  if (slot < 0) {
    slot = static_cast<std::int32_t>(store.size());
    state.out[d] = slot;
    LinkRecord record;
    record.src = src;
    record.dst = dst;
    store.push_back(std::move(record));
  }
  return store[static_cast<std::size_t>(slot)];
}

const Network::LinkRecord* Network::find_link_record(NodeId src,
                                                     NodeId dst) const {
  const NodeState* state = find_state(src);
  if (state == nullptr) return nullptr;
  const std::size_t d = dst.value();
  if (d >= state->out.size() || state->out[d] < 0) return nullptr;
  return &shards_[state->shard]
              ->link_records[static_cast<std::size_t>(state->out[d])];
}

NodeId Network::attach(Node* node, NodeConfig config, std::size_t shard) {
  const NodeId id = node_ids_.next();
  node->node_id_ = id;
  node->network_ = this;
  NodeState& state = ensure_state(id);
  state.node = node;
  state.config = config;
  state.shard = static_cast<std::uint32_t>(
      shard < shards_.size() ? shard : shards_.size() - 1);
  return id;
}

void Network::detach(NodeId id) {
  NodeState* state = find_state(id);
  if (state == nullptr) return;
  Shard& owner = *shards_[state->shard];
  owner.total_dropped += state->queue.size();
  for (Envelope& env : state->queue) owner.pool.release(std::move(env.payload));
  state->queue.clear();
  state->node = nullptr;
  state->serving = false;
  ++state->epoch;  // cancels any in-flight service completion
}

void Network::fold_lookahead(SimTime latency) {
  SimTime floor = SimTime::from_us(1);
  if (latency < floor) latency = floor;
  if (!lookahead_seeded_ || latency < lookahead_) lookahead_ = latency;
  lookahead_seeded_ = true;
}

void Network::set_default_link(LinkConfig config) {
  default_link_ = config;
  // Any pair without an override — including node pairs created later —
  // may ride the default link across shards, so it always bounds lookahead.
  fold_lookahead(config.latency);
}

void Network::set_link(NodeId src, NodeId dst, LinkConfig config) {
  LinkRecord& record = link_record(src, dst);
  record.has_override = true;
  record.config = config;
  if (sharded() && shard_of(src) != shard_of(dst)) {
    fold_lookahead(config.latency);
  }
}

void Network::set_node_config(NodeId id, NodeConfig config) {
  NodeState* state = find_state(id);
  if (state != nullptr) state->config = config;
}

std::size_t Network::send(NodeId src, NodeId dst,
                          std::vector<std::uint8_t> payload) {
  Envelope envelope;
  envelope.src = src;
  envelope.dst = dst;
  envelope.payload = std::move(payload);
  envelope.sent_at = now();
  const std::size_t wire = envelope.wire_size();

  LinkRecord& record = link_record(src, dst);
  const LinkConfig& cfg = record.has_override ? record.config : default_link_;
  // Sender-side state (RNG stream, golden hash, totals, payload pool) lives
  // on the shard that owns `src`; inside a window that IS the running shard.
  Shard& sh = *shards_[find_state(src)->shard];

  const bool dropped =
      !attached(dst) ||
      (cfg.drop_probability > 0.0 && sh.rng.next_bool(cfg.drop_probability));
  if (trace_hash_on_) trace_record(sh, src, dst, envelope.payload, dropped);
  obs::Tracer& tr = tracer();
  if (tr.records_sends()) {
    tr.record(envelope.sent_at, obs::TraceKind::kSend, src.value(),
              dst.value(), static_cast<std::int64_t>(wire), dropped ? 1 : 0);
  }
  if (dropped) {
    ++record.stats.dropped_messages;
    ++sh.total_dropped;
    sh.pool.release(std::move(envelope.payload));
    return wire;
  }

  record.stats.messages += 1;
  record.stats.bytes += wire;
  sh.total_bytes += wire;
  sh.total_messages += 1;

  const SimTime deliver_at =
      envelope.sent_at + cfg.latency + cfg.transfer_delay(wire);
  if (sharded() && tls_shard_ != nullptr &&
      shard_of(dst) != tls_shard_->index) {
    // Cross-shard: park in the mailbox; the barrier merges all mailboxes
    // for a destination in deterministic (time, src shard, order) order.
    // Conservative lookahead guarantees deliver_at is at or past the window
    // horizon, so the destination has not run past it.
    Shard& here = *tls_shard_;
    ++here.cross_sends;
    Mail mail;
    mail.deliver_at = deliver_at;
    mail.dst = dst;
    mail.env = std::move(envelope);
    here.outbox[shard_of(dst)].push_back(std::move(mail));
    return wire;
  }
  // Same-shard inside a window, the serial engine, or the main-thread
  // control context (scenario drivers, revive paths — workers idle, so
  // scheduling straight onto the destination shard's queue is race-free).
  EventQueue& queue = !sharded() ? shards_.front()->events
                     : tls_shard_ != nullptr
                         ? tls_shard_->events
                         : shards_[shard_of(dst)]->events;
  queue.schedule_at(deliver_at, dst.value(),
                    [this, dst, env = std::move(envelope)]() mutable {
                      env.delivered_at = now();
                      deliver(dst, std::move(env));
                    });
  return wire;
}

void Network::deliver(NodeId dst, Envelope envelope) {
  Shard& here = current_shard();
  NodeState* state = find_state(dst);
  if (state == nullptr || state->node == nullptr) {
    ++here.total_dropped;
    here.pool.release(std::move(envelope.payload));
    return;  // node detached while the message was in flight
  }
  if (state->config.queue_capacity &&
      state->queue.size() >= *state->config.queue_capacity) {
    ++here.total_dropped;
    // Per-pair stats live on the SENDING shard's store; only touch them when
    // that is us, else aggregate (engine_stats().cross_tail_drops).
    if (!sharded() || shard_of(envelope.src) == here.index) {
      ++link_record(envelope.src, dst).stats.dropped_messages;
    } else {
      ++here.cross_tail_drops;
    }
    here.pool.release(std::move(envelope.payload));
    return;  // tail drop: the overloaded-static-server failure mode
  }
  state->queue.push_back(std::move(envelope));
  if (!state->serving) start_service(dst);
}

void Network::start_service(NodeId dst) {
  NodeState* state = find_state(dst);
  if (state == nullptr || state->node == nullptr || state->queue.empty()) {
    if (state != nullptr) state->serving = false;
    return;
  }
  state->serving = true;
  const std::uint64_t epoch = state->epoch;
  const SimTime service =
      state->config.service_time(state->queue.front().wire_size());
  current_shard().events.schedule_after(service, dst.value(), [this, dst,
                                                               epoch] {
    NodeState* s = find_state(dst);
    if (s == nullptr || s->epoch != epoch || s->node == nullptr ||
        s->queue.empty()) {
      return;
    }
    Envelope env = std::move(s->queue.front());
    s->queue.pop_front();
    // Handle *before* scheduling the next service so handlers observe a
    // queue that no longer contains the message being processed.
    s->node->handle_message(env);
    ++s->served;  // the rebalancer's per-node load proxy
    current_shard().pool.release(std::move(env.payload));
    // The handler may have detached this node (e.g. reclamation) or attached
    // new ones (the node table may have grown) — re-resolve.
    s = find_state(dst);
    if (s != nullptr && s->epoch == epoch) {
      start_service(dst);
    }
  });
}

void Network::trace_record(Shard& shard, NodeId src, NodeId dst,
                           const std::vector<std::uint8_t>& payload,
                           bool dropped) {
  std::uint64_t h = shard.trace_hash;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kFnvPrime;
    }
  };
  mix(static_cast<std::uint64_t>(now().us()));
  mix(src.value());
  mix(dst.value());
  mix(dropped ? 1u : 0u);
  mix(payload.size());
  for (const std::uint8_t b : payload) {
    h ^= b;
    h *= kFnvPrime;
  }
  shard.trace_hash = h;
}

// ---------------------------------------------------------------------------
// Sharded barrier loop
// ---------------------------------------------------------------------------

void Network::run_until(SimTime t) {
  if (!sharded()) {
    shards_.front()->events.run_until(t);
    return;
  }
  run_sharded(t);
}

void Network::run_sharded(SimTime t) {
  // Catch up control events scheduled at or before the current barrier time
  // (e.g. a scenario wave registered for "now" between run_until calls).
  control_queue_.run_until(global_now_);
  while (global_now_ < t) {
    // Earliest pending shard work; the horizon may jump straight to it when
    // every shard idles (quiesce tails would otherwise spin empty windows).
    SimTime earliest = t;
    bool any = false;
    for (const auto& shard : shards_) {
      if (shard->events.empty()) continue;
      const SimTime next = shard->events.next_time();
      if (!any || next < earliest) earliest = next;
      any = true;
    }
    SimTime window = t;
    if (any) {
      const SimTime base = earliest > global_now_ ? earliest : global_now_;
      const SimTime horizon = base + lookahead_;
      if (horizon < window) window = horizon;
    }
    if (!control_queue_.empty() &&
        control_queue_.next_time() < window) {
      window = control_queue_.next_time();
    }
    // Final step runs INCLUSIVE so events landing exactly at `t` execute,
    // matching the serial engine's run_until contract.  Interior windows are
    // EXCLUSIVE: boundary events wait for the mailbox merge, so their order
    // against merged cross-shard mail is decided deterministically.
    const bool inclusive = window == t;
    run_windows(window, inclusive);
    merge_mailboxes();
    if (tracer_.enabled()) merge_trace_ops();
    global_now_ = window;
    ++windows_;
    // Barrier: workers parked, mailboxes merged — the one safe point to
    // migrate node groups between shards.
    maybe_rebalance();
    control_queue_.run_until(window);
  }
}

void Network::run_one_window(Shard& shard, SimTime end, bool inclusive) {
  tls_shard_ = &shard;
  if (inclusive) {
    shard.events.run_until(end);
  } else {
    shard.events.run_window(end);
  }
  tls_shard_ = nullptr;
}

void Network::run_windows(SimTime end, bool inclusive) {
  if (!use_threads_) {
    for (auto& shard : shards_) run_one_window(*shard, end, inclusive);
    return;
  }
  start_workers();
  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(work_mutex_);
    window_end_ = end;
    window_inclusive_ = inclusive;
    work_pending_ = shards_.size();
    ++work_generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return work_pending_ == 0; });
  }
  windows_wall_us_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
}

void Network::merge_mailboxes() {
  const std::size_t count = shards_.size();
  for (std::size_t d = 0; d < count; ++d) {
    merge_scratch_.clear();
    for (auto& src : shards_) {
      std::vector<Mail>& box = src->outbox[d];
      for (Mail& mail : box) merge_scratch_.push_back(std::move(mail));
      box.clear();
    }
    if (merge_scratch_.empty()) continue;
    // Stable sort on time alone: equal times keep concatenation order, i.e.
    // (deliver time, src shard, send order) — the determinism contract.
    std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                     [](const Mail& a, const Mail& b) {
                       return a.deliver_at < b.deliver_at;
                     });
    EventQueue& queue = shards_[d]->events;
    for (Mail& mail : merge_scratch_) {
      // Conservative lookahead means nothing lands behind the horizon the
      // destination already reached.
      assert(mail.deliver_at >= queue.now());
      queue.schedule_at(mail.deliver_at, mail.dst.value(),
                        [this, dst = mail.dst,
                         env = std::move(mail.env)]() mutable {
                          env.delivered_at = now();
                          deliver(dst, std::move(env));
                        });
    }
  }
  merge_scratch_.clear();
}

void Network::merge_trace_ops() {
  // K-way merge of the per-shard deferred-op buffers by (time, shard index);
  // each buffer is already time-sorted (sim time is monotone in a window).
  const std::size_t count = shards_.size();
  std::size_t pos[64] = {};
  assert(count <= 64);
  while (true) {
    std::size_t best = count;
    SimTime best_at{};
    for (std::size_t i = 0; i < count; ++i) {
      const auto& ops = shards_[i]->tracer.deferred_ops();
      if (pos[i] >= ops.size()) continue;
      const SimTime at = ops[pos[i]].at;
      if (best == count || at < best_at) {
        best = i;
        best_at = at;
      }
    }
    if (best == count) break;
    tracer_.apply(shards_[best]->tracer.deferred_ops()[pos[best]]);
    ++pos[best];
  }
  for (auto& shard : shards_) shard->tracer.deferred_ops().clear();
}

// ---------------------------------------------------------------------------
// Shard load rebalancing
// ---------------------------------------------------------------------------

void Network::maybe_rebalance() {
  if (rebalance_threshold_ <= 0.0 || !sharded()) return;
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events.events_processed();
  if (total - rebalance_last_total_ < rebalance_interval_events_) return;
  rebalance_last_total_ = total;
  evaluate_rebalance(false);
}

bool Network::evaluate_rebalance(bool force) {
  if (!sharded()) return false;
  const std::size_t count = shards_.size();
  if (shard_event_base_.size() != count) shard_event_base_.assign(count, 0);

  // Executed-event deltas for the elapsed epoch; baselines reset at every
  // evaluation so one early hot phase cannot dominate forever.
  std::size_t busiest = 0;
  std::size_t idlest = 0;
  std::uint64_t delta_total = 0;
  std::vector<std::uint64_t> delta(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t events = shards_[i]->events.events_processed();
    delta[i] = events - shard_event_base_[i];
    shard_event_base_[i] = events;
    delta_total += delta[i];
    if (delta[i] > delta[busiest]) busiest = i;
    if (delta[i] < delta[idlest]) idlest = i;
  }
  auto group_served = [this](const ColocatedGroup& group) {
    std::uint64_t sum = 0;
    for (const NodeId id : group.nodes) {
      const NodeState* state = find_state(id);
      if (state != nullptr) sum += state->served;
    }
    return sum;
  };
  auto snapshot_groups = [&] {
    for (ColocatedGroup& group : groups_) group.served_base = group_served(group);
  };

  const double mean =
      static_cast<double>(delta_total) / static_cast<double>(count);
  const double ratio =
      mean > 0.0 ? static_cast<double>(delta[busiest]) / mean : 1.0;
  if (busiest == idlest || (!force && ratio < rebalance_threshold_)) {
    snapshot_groups();
    return false;
  }

  // Pick the colocated group on the busiest shard whose epoch load best
  // matches the ideal transfer (half the busiest-idlest gap): moving the
  // hottest group outright would often just swap the imbalance.
  const double ideal =
      static_cast<double>(delta[busiest] - delta[idlest]) / 2.0;
  std::size_t best = groups_.size();
  double best_miss = 0.0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const ColocatedGroup& group = groups_[g];
    bool eligible = !group.nodes.empty();
    for (const NodeId id : group.nodes) {
      const NodeState* state = find_state(id);
      if (state == nullptr || state->node == nullptr ||
          state->shard != busiest) {
        eligible = false;
        break;
      }
    }
    if (!eligible) continue;
    const std::uint64_t served = group_served(group);
    const double load =
        static_cast<double>(served - std::min(served, group.served_base));
    const double miss = std::abs(load - ideal);
    if (best == groups_.size() || miss < best_miss) {
      best = g;
      best_miss = miss;
    }
  }
  snapshot_groups();
  if (best == groups_.size()) return false;

  for (const NodeId id : groups_[best].nodes) migrate_node(id, idlest);
  refold_cross_shard_lookahead();
  ++rebalance_count_;
  if (tracer_.enabled()) {
    tracer_.record(global_now_, obs::TraceKind::kShardRebalance,
                   groups_[best].nodes.front().value(), busiest,
                   static_cast<std::int64_t>(idlest),
                   static_cast<std::int64_t>(ratio * 1000.0));
  }
  return true;
}

void Network::migrate_node(NodeId id, std::size_t to) {
  NodeState* state = find_state(id);
  if (state == nullptr || state->shard == to) return;
  Shard& from = *shards_[state->shard];
  Shard& dest = *shards_[to];

  // 1. Re-home this node's source link records.  Record indices are shared
  // with no one (each source's out[] table points only at its own records),
  // but sibling records in the old store ARE index-addressed by other
  // sources on that shard — so vacated slots are deadened in place, never
  // erased.
  for (std::size_t d = 0; d < state->out.size(); ++d) {
    const std::int32_t slot = state->out[d];
    if (slot < 0) continue;
    LinkRecord& old_record = from.link_records[static_cast<std::size_t>(slot)];
    state->out[d] = static_cast<std::int32_t>(dest.link_records.size());
    dest.link_records.push_back(old_record);
    old_record = LinkRecord{};  // dead slot: zero stats, no override
  }

  // 2. Re-home pending events (deliveries, the in-flight service
  // completion, periodic self-ticks — everything stamped with this node's
  // tag).  Both queues sit at the barrier time, and extraction preserves
  // (when, seq) order, so the events replay on the new shard in the exact
  // order they would have run — after any same-instant events the new
  // shard already holds, which is a deterministic order either way.
  state->shard = static_cast<std::uint32_t>(to);
  migrate_scratch_.clear();
  from.events.extract_tagged(id.value(), migrate_scratch_);
  for (EventQueue::MigratedEvent& event : migrate_scratch_) {
    dest.events.schedule_at(event.when, id.value(), std::move(event.action));
  }
  migrate_scratch_.clear();

  // 3. Let the node re-acquire shard-affine bindings (deferred tracer).
  if (state->node != nullptr) state->node->on_shard_migrated();
}

void Network::refold_cross_shard_lookahead() {
  for (const auto& shard : shards_) {
    for (const LinkRecord& record : shard->link_records) {
      if (!record.has_override) continue;
      if (shard_of(record.src) != shard_of(record.dst)) {
        fold_lookahead(record.config.latency);
      }
    }
  }
}

void Network::start_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void Network::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  workers_stop_ = false;
}

void Network::worker_loop(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime end{};
    bool inclusive = false;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock, [this, seen] {
        return workers_stop_ || work_generation_ != seen;
      });
      if (workers_stop_) return;
      seen = work_generation_;
      end = window_end_;
      inclusive = window_inclusive_;
    }
    const auto active_start = std::chrono::steady_clock::now();
    run_one_window(*shards_[index], end, inclusive);
    const auto active_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - active_start)
            .count());
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      shards_[index]->active_wall_us += active_us;
      if (--work_pending_ == 0) done_cv_.notify_one();
    }
  }
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

std::size_t Network::queue_length(NodeId id) const {
  const NodeState* state = find_state(id);
  return state != nullptr ? state->queue.size() : 0;
}

const LinkStats& Network::stats(NodeId src, NodeId dst) const {
  static const LinkStats kEmpty;
  const LinkRecord* record = find_link_record(src, dst);
  return record != nullptr ? record->stats : kEmpty;
}

std::uint64_t Network::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->total_bytes;
  return sum;
}

std::uint64_t Network::total_messages() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->total_messages;
  return sum;
}

std::uint64_t Network::total_dropped() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->total_dropped;
  return sum;
}

std::uint64_t Network::bytes_matching(
    const std::function<bool(NodeId, NodeId)>& pred) const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) {
    for (const LinkRecord& record : shard->link_records) {
      if (pred(record.src, record.dst)) sum += record.stats.bytes;
    }
  }
  return sum;
}

Network::EngineStats Network::engine_stats() const {
  EngineStats stats;
  std::uint64_t active_us = 0;
  stats.shard_events.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.events_processed += shard->events.events_processed();
    stats.shard_events.push_back(shard->events.events_processed());
    if (shard->events.peak_pending() > stats.event_peak_pending) {
      stats.event_peak_pending = shard->events.peak_pending();
    }
    stats.buffers_acquired += shard->pool.counters().acquired;
    stats.buffers_reused += shard->pool.counters().reused;
    stats.buffers_idle += shard->pool.idle();
    stats.cross_shard_messages += shard->cross_sends;
    active_us += shard->active_wall_us;
  }
  stats.events_processed += control_queue_.events_processed();
  stats.windows = windows_;
  stats.rebalances = rebalance_count_;
  // Stall = dispatch wall time summed over shards minus the time shards
  // actually ran: what every core spent waiting on the slowest sibling.
  const std::uint64_t dispatched = windows_wall_us_ * shards_.size();
  stats.window_stall_us = dispatched > active_us ? dispatched - active_us : 0;
  return stats;
}

std::uint64_t Network::trace_hash() const {
  if (!sharded()) return shards_.front()->trace_hash;
  std::uint64_t h = kFnvOffset;
  for (const auto& shard : shards_) {
    const std::uint64_t v = shard->trace_hash;
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kFnvPrime;
    }
  }
  return h;
}

std::vector<std::uint64_t> Network::shard_trace_hashes() const {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(shards_.size());
  for (const auto& shard : shards_) hashes.push_back(shard->trace_hash);
  return hashes;
}

}  // namespace matrix
