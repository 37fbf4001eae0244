// Simulated network.
//
// Stands in for the paper's LAN/WAN testbed (docs/ARCHITECTURE.md, "Reproduction
// substitutions").  Model:
//
//   * Links are contention-free pipes: delivery time = propagation latency +
//     wire_size / bandwidth.  Per-pair overrides allow "WAN" client links and
//     "LAN" server-to-server links in the same run.
//   * Each node has a FIFO receive queue and finite service capacity
//     (per-message + per-byte service time).  Overload therefore shows up as
//     receive-queue growth — exactly the observable in the paper's Fig. 2b.
//   * Optional per-link drop probability supports fault-injection tests.
//
// Everything is driven by per-shard EventQueues; the network never uses wall
// time inside a run, so runs are bit-deterministic for a given seed and shard
// count.
//
// Hot-path layout (docs/ARCHITECTURE.md, "Engine internals"): NodeIds are
// dense (monotonic from 1), so the node table is a flat vector indexed by id
// and every per-send lookup is O(1) array arithmetic.  Per-pair link state
// (config override + traffic counters) lives in append-ordered record stores
// reached through per-source dense jump tables.  Message payload storage is
// recycled through per-shard BufferPools once the receiving handler returns.
//
// Parallel engine (docs/ARCHITECTURE.md, "Parallel engine"): nodes are
// partitioned into K shards, each owning an EventQueue + BufferPool + RNG
// stream + trace buffer + link-record store.  Shards synchronize with
// conservative lookahead windows: every shard runs freely up to the window
// horizon W (derived from the minimum cross-shard link latency), cross-shard
// sends land in per-(src,dst)-shard mailboxes, and mailboxes are merged at
// the barrier in deterministic (deliver time, src shard, send order) order.
// K=1 is the serial engine, byte-identical to the pre-sharding golden
// traces; any fixed K is run-to-run deterministic, threaded or not.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/event_queue.h"
#include "net/message.h"
#include "obs/trace.h"
#include "util/buffer_pool.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace matrix {

class Network;

/// A process attached to the network.  Subclasses (Matrix server, game
/// server, coordinator, bot client) implement handle_message; it is invoked
/// when the node's service capacity reaches the message, not at raw arrival.
class Node {
 public:
  virtual ~Node() = default;

  [[nodiscard]] NodeId node_id() const { return node_id_; }
  [[nodiscard]] Network* network() const { return network_; }

  /// Human-readable name for logs and metrics ("matrix-3", "client-217").
  [[nodiscard]] virtual std::string name() const = 0;

  virtual void handle_message(const Envelope& envelope) = 0;

  /// Called (control context, workers parked) after shard rebalancing moved
  /// this node to a new shard.  Nodes that BIND shard-affine resources — a
  /// tracer_for pointer, say — must re-acquire them here; everything routed
  /// through the context-sensitive accessors needs nothing.
  virtual void on_shard_migrated() {}

 private:
  friend class Network;
  NodeId node_id_;
  Network* network_ = nullptr;
};

/// Propagation/bandwidth/drop parameters for one directed link.
struct LinkConfig {
  SimTime latency = SimTime::from_us(500);      // one-way propagation
  double bandwidth_bytes_per_sec = 125e6;       // 1 Gbps default
  double drop_probability = 0.0;

  [[nodiscard]] SimTime transfer_delay(std::size_t wire_bytes) const {
    if (bandwidth_bytes_per_sec <= 0.0) return SimTime{};
    const double sec = static_cast<double>(wire_bytes) / bandwidth_bytes_per_sec;
    return SimTime::from_sec(sec);
  }
};

/// Service capacity of one node; overload manifests as queue growth.
struct NodeConfig {
  SimTime service_per_message = SimTime::from_us(15);
  SimTime service_per_kb = SimTime::from_us(2);
  /// Receive queue capacity; std::nullopt = unbounded.  Bounded queues drop
  /// the newest message (tail drop) — used by the static-partitioning
  /// baseline to show what "the server just fails" looks like.
  std::optional<std::size_t> queue_capacity;

  [[nodiscard]] SimTime service_time(std::size_t wire_bytes) const {
    const auto kb = static_cast<std::int64_t>(wire_bytes) ;
    return service_per_message +
           SimTime::from_us(service_per_kb.us() * kb / 1024);
  }
};

/// Traffic counters for one directed node pair.
struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped_messages = 0;
};

/// Process-level default for EngineConfig::threads: reads the
/// MATRIX_SHARD_THREADS environment variable once ("0"/"off"/"false" forces
/// sequential shard windows, "1"/"on"/"true" forces worker threads, unset
/// keeps `config_default`).  Same pattern as MATRIX_LOAD_POLICY.
[[nodiscard]] bool resolve_shard_threads(bool config_default);

/// Tag-stamping façade over a node's owner-shard EventQueue (see
/// Network::events_for): every event scheduled through it carries the
/// node's id, so shard rebalancing can extract and re-home the node's
/// pending timers along with the node.
class NodeEventQueue {
 public:
  NodeEventQueue(EventQueue& queue, NodeId id)
      : queue_(queue), tag_(id.value()) {}

  template <typename F>
  void schedule_at(SimTime when, F&& action) {
    queue_.schedule_at(when, tag_, std::forward<F>(action));
  }
  template <typename F>
  void schedule_after(SimTime delay, F&& action) {
    queue_.schedule_after(delay, tag_, std::forward<F>(action));
  }
  [[nodiscard]] SimTime now() const { return queue_.now(); }

 private:
  EventQueue& queue_;
  EventQueue::Tag tag_;
};

class Network {
 public:
  /// Defined in network.cpp: construction also registers this network as
  /// the Logger's sim-time clock (util/log.h) so log lines carry sim time.
  explicit Network(std::uint64_t seed = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- sharding -----------------------------------------------------------

  /// Partitions the engine into `count` shards (clamped to ≥1).  Must be
  /// called before any node is attached or event scheduled; Deployment does
  /// so from Config::engine.  With one shard (the default) the engine is
  /// serial and byte-identical to the historical behavior.  `use_threads`
  /// runs shard windows on persistent workers; results are identical either
  /// way (the determinism contract), threads only buy wall-clock.
  void configure_shards(std::size_t count, bool use_threads = true);
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] bool sharded() const { return shards_.size() > 1; }
  /// Owning shard of `id` (0 for unknown ids).
  [[nodiscard]] std::size_t shard_of(NodeId id) const {
    const NodeState* state = find_state(id);
    return state != nullptr ? state->shard : 0;
  }
  /// Conservative lookahead: min latency over the default link and every
  /// cross-shard override, floored at 1µs.
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  // ---- shard load rebalancing ---------------------------------------------

  /// Arms locality-preserving shard rebalancing: every `interval_events`
  /// executed events (summed over shards, evaluated at window barriers) the
  /// engine compares per-shard executed-event counts for the elapsed epoch,
  /// and when busiest/mean exceeds `threshold` migrates one colocated node
  /// group (see define_colocated_group) from the busiest shard to the
  /// idlest.  `threshold <= 0` disables (the default; behavior is then
  /// byte-identical to the pre-rebalancing engine).  The trigger is derived
  /// from event counts only — never wall time — so any fixed K stays
  /// run-to-run reproducible, threaded or not.
  void set_rebalance(double threshold, std::uint64_t interval_events);

  /// Registers a group of nodes that must always share a shard (a matrix
  /// server and its co-located game server): rebalancing only ever migrates
  /// whole groups, so the 30µs colocated links never cross shards and the
  /// LAN lookahead survives every migration.  Deployment registers each
  /// server pair at bring-up.
  void define_colocated_group(std::vector<NodeId> nodes);

  /// Runs one rebalance evaluation immediately (control context only,
  /// between run_until calls), ignoring the interval and threshold gates.
  /// Returns true when a group actually migrated.  Test hook.
  bool force_rebalance();

  [[nodiscard]] std::uint64_t rebalance_count() const {
    return rebalance_count_;
  }

  // ---- topology -----------------------------------------------------------

  /// Attaches `node` (not owned) to `shard` and assigns it a NodeId.  The
  /// shard index is clamped; with one shard the argument is irrelevant.
  NodeId attach(Node* node, NodeConfig config = {}, std::size_t shard = 0);

  /// Detaches a node: undelivered messages to it are dropped.  Used when a
  /// reclaimed server is returned to the resource pool.  Control-context
  /// only (never from inside a sharded window on a foreign shard).
  void detach(NodeId id);

  [[nodiscard]] bool attached(NodeId id) const {
    const NodeState* state = find_state(id);
    return state != nullptr && state->node != nullptr;
  }

  void set_default_link(LinkConfig config);
  void set_link(NodeId src, NodeId dst, LinkConfig config);
  /// Convenience: sets both directions.
  void set_link_bidirectional(NodeId a, NodeId b, LinkConfig config) {
    set_link(a, b, config);
    set_link(b, a, config);
  }

  [[nodiscard]] const LinkConfig& link(NodeId src, NodeId dst) const {
    const LinkRecord* record = find_link_record(src, dst);
    return record != nullptr && record->has_override ? record->config
                                                     : default_link_;
  }

  void set_node_config(NodeId id, NodeConfig config);

  // ---- data plane ---------------------------------------------------------

  /// Sends `payload` from `src` to `dst`.  Returns the wire size charged.
  /// Messages to detached nodes are counted as drops.
  std::size_t send(NodeId src, NodeId dst, std::vector<std::uint8_t> payload);

  /// Rents a recycled payload buffer (capacity intact, contents cleared) for
  /// encoding the next outgoing message; the network reclaims the storage
  /// after the receiving handler runs.  See util/buffer_pool.h.
  [[nodiscard]] std::vector<std::uint8_t> rent_buffer() {
    return current_shard().pool.acquire();
  }

  // ---- time ---------------------------------------------------------------

  /// The event queue of the CURRENT execution context: the running shard's
  /// queue inside a window (thread-local routing — a node's self-scheduled
  /// ticks land on its own shard), the main-thread control queue between
  /// windows when sharded, and the one serial queue otherwise.  Scenario
  /// drivers and metrics samplers scheduling from outside a window therefore
  /// run on the main thread at window barriers, where topology mutation
  /// (attach/detach) is safe.
  [[nodiscard]] EventQueue& events() {
    if (tls_shard_ != nullptr) return tls_shard_->events;
    return sharded() ? control_queue_ : shards_.front()->events;
  }

  /// The event queue OWNED by a node — where that node's periodic self-ticks
  /// belong regardless of which context first arms them.  A timer armed via
  /// events() from control context (Deployment bring-up, a scenario action
  /// calling join()) would land on the control queue and stay there through
  /// every re-arm, capping each conservative window at the next timer and
  /// serializing per-node work onto the main thread.  Only safe for a node
  /// scheduling for ITSELF (handlers run on the owning shard's thread) or
  /// from control context at a barrier (workers parked).  The returned
  /// façade stamps every event with the node's id so shard rebalancing can
  /// re-home pending timers when the node migrates.
  [[nodiscard]] NodeEventQueue events_for(NodeId id) {
    return NodeEventQueue(shards_[shard_of(id)]->events, id);
  }

  [[nodiscard]] SimTime now() const {
    if (tls_shard_ != nullptr) return tls_shard_->events.now();
    return sharded() ? global_now_ : shards_.front()->events.now();
  }

  /// Advances the simulation to `t`.  Serial (one shard): runs the queue
  /// directly.  Sharded: the conservative barrier loop — pick the horizon
  /// W = min(t, next control event, earliest pending work + lookahead), run
  /// every shard's window to W (exclusive; inclusive on the final step so
  /// events AT `t` run, matching the serial engine), merge the cross-shard
  /// mailboxes deterministically, replay deferred trace ops, then run
  /// main-thread control events due at W.
  void run_until(SimTime t);

  // ---- instrumentation ----------------------------------------------------

  [[nodiscard]] std::size_t queue_length(NodeId id) const;
  /// Counters for one directed pair.  The reference is invalidated by the
  /// next send between a previously-unseen pair (the record store may grow).
  /// Sharded runs: cross-shard tail drops are aggregated per shard (see
  /// EngineStats::cross_tail_drops), not attributed to the pair.
  [[nodiscard]] const LinkStats& stats(NodeId src, NodeId dst) const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Sum of bytes on links whose (src,dst) both satisfy `pred`.  Lets the
  /// bandwidth bench split traffic into client↔server vs server↔server etc.
  [[nodiscard]] std::uint64_t bytes_matching(
      const std::function<bool(NodeId, NodeId)>& pred) const;

  /// Engine hot-path counters (surfaced by the --json bench reports).
  struct EngineStats {
    std::uint64_t events_processed = 0;   ///< EventQueue events executed
    std::size_t event_peak_pending = 0;   ///< peak event-heap depth (max shard)
    std::uint64_t buffers_acquired = 0;   ///< payload buffers rented
    std::uint64_t buffers_reused = 0;     ///< rentals served from the freelist
    std::size_t buffers_idle = 0;         ///< freelist depth right now
    std::uint64_t cross_shard_messages = 0;  ///< sends merged through mailboxes
    std::uint64_t windows = 0;            ///< barrier windows executed
    std::uint64_t rebalances = 0;         ///< shard group migrations executed
    /// Wall-clock µs shards spent parked at window barriers waiting for the
    /// slowest sibling (threaded runs only; 0 sequential).  The direct
    /// measure of shard imbalance that rebalancing exists to shrink.
    std::uint64_t window_stall_us = 0;
    std::vector<std::uint64_t> shard_events;  ///< per-shard events executed
  };
  [[nodiscard]] EngineStats engine_stats() const;

  /// Golden-trace hashing (tests/determinism_test.cpp): chains an FNV-1a
  /// hash over every send (time, src, dst, drop flag, payload bytes), one
  /// chain per SENDING shard so a fixed K>1 pins K stable hashes.
  void enable_trace_hash() { trace_hash_on_ = true; }
  /// Serial / K=1: the historical golden hash.  K>1: an FNV-1a fold of the
  /// per-shard hashes (order-stable; see shard_trace_hashes()).
  [[nodiscard]] std::uint64_t trace_hash() const;
  [[nodiscard]] std::vector<std::uint64_t> shard_trace_hashes() const;

  /// Structured tracing + flight recorder (src/obs/trace.h).  Disabled by
  /// default; Deployment enables it from Config::obs via enable_tracing().
  /// Inside a sharded window this returns the running shard's DEFERRED
  /// tracer (ops replayed into the master at each barrier); everywhere else
  /// — serial runs, control context, post-run inspection — the master.  The
  /// master reference is stable for the network's lifetime.
  [[nodiscard]] obs::Tracer& tracer() {
    return tls_shard_ != nullptr ? tls_shard_->tracer : tracer_;
  }
  [[nodiscard]] const obs::Tracer& tracer() const {
    return tls_shard_ != nullptr ? tls_shard_->tracer : tracer_;
  }
  /// The tracer a node should BIND (keep a pointer to) for records it emits
  /// later from inside its own handlers: the owning shard's deferred tracer
  /// when sharded, the master otherwise.  tracer() is context-sensitive —
  /// capturing it from control context (e.g. during Deployment bring-up)
  /// would capture the master and then race it from a worker thread.
  [[nodiscard]] obs::Tracer& tracer_for(NodeId id) {
    return sharded() ? shards_[shard_of(id)]->tracer : tracer_;
  }
  /// Enables tracing on the master and mirrors the enablement into every
  /// shard's deferred tracer.  Use instead of tracer().enable() so sharded
  /// deployments trace coherently.
  void enable_tracing(obs::TraceOptions options = {});

  [[nodiscard]] Rng& rng() { return current_shard().rng; }

 private:
  /// Per-directed-pair link state: traffic counters plus the optional config
  /// override, stored once in the SOURCE-owner shard's record store.
  struct LinkRecord {
    LinkStats stats;  // first: the only fields every send touches
    NodeId src;
    NodeId dst;
    bool has_override = false;
    LinkConfig config{};
  };

  struct NodeState {
    Node* node = nullptr;
    NodeConfig config;
    std::deque<Envelope> queue;
    bool serving = false;
    std::uint32_t shard = 0;  // owning shard index
    std::uint64_t epoch = 0;  // bumped on detach to cancel stale service events
    std::uint64_t served = 0;  // messages handled — the rebalancer's per-node
                               // load proxy (written only by the owner shard)
    /// Dense NodeId-indexed jump table: out[dst.value()] is this source's
    /// record index in its owner shard's link store, or -1 before first use.
    std::vector<std::int32_t> out;
  };

  /// One cross-shard message parked until the window barrier.
  struct Mail {
    SimTime deliver_at{};
    NodeId dst;
    Envelope env;
  };

  /// Everything one shard owns.  All mutation of a node's state (receive
  /// queue as destination, jump table and link records as source) happens on
  /// its owner shard's thread — or on the main thread while workers idle —
  /// so shards share no mutable state inside a window.
  struct Shard {
    explicit Shard(std::uint32_t idx, std::uint64_t rng_seed)
        : index(idx), rng(rng_seed) {}

    std::uint32_t index = 0;
    EventQueue events;
    BufferPool pool;
    Rng rng;
    obs::Tracer tracer;  // deferred to the master when sharded
    std::uint64_t trace_hash = 0xcbf29ce484222325ULL;
    std::vector<LinkRecord> link_records;
    std::uint64_t total_bytes = 0;
    std::uint64_t total_messages = 0;
    std::uint64_t total_dropped = 0;
    /// Tail drops of foreign-shard traffic (per-pair stats live on the
    /// sending shard and must not be written from here).
    std::uint64_t cross_tail_drops = 0;
    std::uint64_t cross_sends = 0;
    /// Wall-clock µs this shard spent actively running windows (threaded
    /// runs; written under work_mutex_, read at barriers).
    std::uint64_t active_wall_us = 0;
    /// outbox[k]: mail for shard k, in send order.
    std::vector<std::vector<Mail>> outbox;
  };

  [[nodiscard]] NodeState* find_state(NodeId id) {
    const std::size_t index = id.value();
    return index < nodes_.size() ? &nodes_[index] : nullptr;
  }
  [[nodiscard]] const NodeState* find_state(NodeId id) const {
    const std::size_t index = id.value();
    return index < nodes_.size() ? &nodes_[index] : nullptr;
  }
  /// The shard of the current execution context: the running window's shard
  /// on a worker, shard 0 otherwise (serial engine, or main-thread control
  /// context while workers idle).
  [[nodiscard]] Shard& current_shard() {
    return tls_shard_ != nullptr ? *tls_shard_ : *shards_.front();
  }
  NodeState& ensure_state(NodeId id);
  LinkRecord& link_record(NodeId src, NodeId dst);
  [[nodiscard]] const LinkRecord* find_link_record(NodeId src,
                                                   NodeId dst) const;
  void fold_lookahead(SimTime latency);

  void deliver(NodeId dst, Envelope envelope);
  void start_service(NodeId dst);
  void trace_record(Shard& shard, NodeId src, NodeId dst,
                    const std::vector<std::uint8_t>& payload, bool dropped);

  // ---- shard rebalancing (network.cpp) ------------------------------------
  void maybe_rebalance();
  bool evaluate_rebalance(bool force);
  void migrate_node(NodeId id, std::size_t to);
  /// Folds every cross-shard link override into the lookahead again after a
  /// migration changed which links cross shards.  Folding only ever shrinks
  /// the lookahead, so it is always conservative-safe.
  void refold_cross_shard_lookahead();

  // ---- sharded barrier loop (network.cpp) ---------------------------------
  void run_sharded(SimTime t);
  void run_windows(SimTime end, bool inclusive);
  void run_one_window(Shard& shard, SimTime end, bool inclusive);
  void merge_mailboxes();
  void merge_trace_ops();
  void start_workers();
  void stop_workers();
  void worker_loop(std::size_t index);

  static thread_local Shard* tls_shard_;

  std::vector<std::unique_ptr<Shard>> shards_;  // ≥1 always
  EventQueue control_queue_;   // main-thread events when sharded
  SimTime global_now_{};       // barrier time when sharded
  SimTime lookahead_ = SimTime::from_us(1);
  bool lookahead_seeded_ = false;
  bool use_threads_ = true;
  std::uint64_t seed_ = 0;
  std::uint64_t windows_ = 0;
  /// Total wall-clock µs spent inside threaded window dispatches (control
  /// thread measurement; engine_stats derives barrier stall from it).
  std::uint64_t windows_wall_us_ = 0;

  std::vector<NodeState> nodes_;       // dense, index = NodeId::value()
  LinkConfig default_link_;
  IdGenerator<NodeId> node_ids_;
  bool trace_hash_on_ = false;
  obs::Tracer tracer_;
  std::vector<Mail> merge_scratch_;

  // ---- shard rebalancing state --------------------------------------------
  struct ColocatedGroup {
    std::vector<NodeId> nodes;
    std::uint64_t served_base = 0;  // served sum at the last epoch boundary
  };
  std::vector<ColocatedGroup> groups_;
  double rebalance_threshold_ = 0.0;            // <= 0: rebalancing off
  std::uint64_t rebalance_interval_events_ = 0;
  std::uint64_t rebalance_last_total_ = 0;      // events at the last check
  std::vector<std::uint64_t> shard_event_base_;  // per-shard epoch baselines
  std::uint64_t rebalance_count_ = 0;
  std::vector<EventQueue::MigratedEvent> migrate_scratch_;

  // ---- worker pool (sharded + threads) ------------------------------------
  std::vector<std::thread> workers_;
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t work_generation_ = 0;
  std::size_t work_pending_ = 0;
  SimTime window_end_{};
  bool window_inclusive_ = false;
  bool workers_stop_ = false;
};

}  // namespace matrix
