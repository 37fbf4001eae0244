// Generic game server (paper §3.2.2).
//
// "The game server is the software that stores the state of the game world
// and coordinates the activity of the players."  This implementation is the
// game-side half of the Matrix contract, written only against the MatrixPort
// API — exactly the modification surface the paper claims a real game needs
// ("relatively simple modifications to the server code"):
//
//   * owns client sessions, avatars, and map objects in its authority range;
//   * tags every client packet with world coordinates and forwards it to
//     Matrix (it never talks to other game servers directly, except through
//     Matrix relays);
//   * applies range-verified remote events from Matrix to local ghosts and
//     rebroadcasts them to interested local clients;
//   * reports load periodically;
//   * obeys MapRange orders: transfers map-object state, hands off clients
//     to the named successor, and acknowledges with ShedDone;
//   * migrates clients that walk out of its range, using Matrix's owner
//     lookup to find the right destination;
//   * enforces the admission valve (src/control/): its Matrix server pushes
//     NORMAL/SOFT/HARD via AdmissionUpdate, and NEW joins are denied (HARD)
//     or token-budgeted (SOFT) with JoinDeny/JoinDefer.  Resumed joins —
//     redirects and boundary migrations — always pass: protection sheds new
//     load, never live sessions;
//   * optionally runs the surge-queue "waiting room"
//     (src/control/surge_queue.h): gated joins are parked in a bounded
//     priority queue (RESUME > VIP > NORMAL, aged against starvation) and
//     drained as the token budget refills or the valve relaxes, with
//     QueueUpdate position/ETA notifications replacing client-side
//     defer-retry loops;
//   * under coordinator-led global admission (src/control/
//     global_admission.h) it composes the relayed AdmissionDirective floor
//     with the locally pushed valve state (strictest wins), swaps the
//     directive's token-budget share into its join bucket, bounds the VIP
//     share of each drain burst (`priority.vip_drain_cap`), and — while a
//     directive is active — hands parked joins displaced by a split or
//     reclaim to the server that now owns their region (class and accrued
//     age preserved) instead of flushing them to client-side retry.
//
// Game-genre specifics (rates, payload sizes, radius) come from the injected
// GameModelSpec; the server logic itself is game-agnostic.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/matrix_port.h"
#include "control/admission.h"
#include "control/control_plane.h"
#include "control/surge_queue.h"
#include "control/token_bucket.h"
#include "core/config.h"
#include "core/protocol_node.h"
#include "game/entity.h"
#include "game/ghost_table.h"
#include "game/game_model.h"
#include "policy/load_view.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/stats.h"

namespace matrix {

class GameServer : public ProtocolNode {
 public:
  GameServer(ServerId id, GameModelSpec spec, Config config)
      : id_(id), spec_(std::move(spec)), config_(std::move(config)) {}

  /// Connects this game server to its co-located Matrix server.  Must be
  /// called after both nodes are attached to the network.
  void wire(NodeId matrix_node);

  /// Begins periodic load reporting and update ticks.
  void start();

  /// Seeds `count` map objects uniformly over `area` (deployment-time, on
  /// root servers only; subsequent ownership moves via state transfer).
  void spawn_map_objects(std::size_t count, const Rect& area, Rng& rng);

  /// Shard rebalancing moved this server: re-bind the control plane's
  /// tracer pointer to the new owner shard's deferred tracer.
  void on_shard_migrated() override;

  // ---- observability --------------------------------------------------------

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] ServerId server_id() const { return id_; }
  [[nodiscard]] const Rect& authority() const { return authority_; }
  [[nodiscard]] std::size_t client_count() const { return sessions_.size(); }
  [[nodiscard]] std::size_t map_object_count() const {
    return map_objects_.size();
  }
  [[nodiscard]] std::size_t ghost_count() const { return ghosts_.size(); }
  [[nodiscard]] const GameModelSpec& spec() const { return spec_; }
  /// Admission state last pushed by the co-located Matrix server.
  [[nodiscard]] AdmissionState admission_state() const {
    return admission_state_;
  }
  /// The state the join gate actually enforces: the pushed valve state
  /// composed with the coordinator's directive floor, strictest wins.
  [[nodiscard]] AdmissionState effective_admission_state() const {
    return compose_admission(admission_state_, directive_floor_);
  }
  /// True while a coordinator directive is in force here.
  [[nodiscard]] bool directive_active() const { return directive_active_; }
  /// This server's control-plane failsafe view (freshness is driven by
  /// McHeartbeats relayed through the co-located Matrix server).
  [[nodiscard]] const ControlPlane& control_plane() const {
    return control_plane_;
  }
  [[nodiscard]] FailsafeState failsafe_state() const {
    return control_plane_.state();
  }
  /// The surge queue ("waiting room"); empty forever unless
  /// Config::admission.priority.queue_enabled.
  [[nodiscard]] const SurgeQueue& surge_queue() const { return surge_queue_; }
  /// This server's instantaneous load in the shared LoadSignals vocabulary
  /// (policy/load_view.h) — the one snapshot LoadReport, the admission
  /// valve, and the coordinator's LoadDigest aggregate all derive from.
  [[nodiscard]] LoadSignals local_signals() const;

  struct Stats {
    std::uint64_t hellos = 0;
    std::uint64_t actions = 0;
    std::uint64_t unknown_client_actions = 0;  ///< mid-switch strays
    std::uint64_t remote_events = 0;
    std::uint64_t updates_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t clients_redirected = 0;
    std::uint64_t clients_migrated = 0;  ///< walked across a boundary
    std::uint64_t sheds = 0;
    std::uint64_t state_objects_sent = 0;
    std::uint64_t state_objects_received = 0;
    std::uint64_t load_reports = 0;
    std::uint64_t joins_denied = 0;    ///< HARD admission refusals
    std::uint64_t joins_deferred = 0;  ///< SOFT token budget exhausted
    /// Resumed joins (redirect/migration) that bypassed a non-NORMAL valve.
    std::uint64_t resumes_admitted = 0;
    // Surge queue (src/control/surge_queue.h); parked/drained/overflow
    // tallies live in SurgeQueue::Stats (see surge_queue()).
    std::uint64_t queue_updates_sent = 0;
    /// Coordinator directives applied (global admission).
    std::uint64_t directives_applied = 0;
    /// Cross-server queue handoffs: messages sent on split/reclaim, and
    /// entries from received handoffs this server could not adopt
    /// (fell back to JoinDefer).
    std::uint64_t queue_handoffs_sent = 0;
    std::uint64_t queue_handoff_rejected = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  void on_message(const Message& message, const Envelope& envelope) override;
  /// Frame fast path, and the only handler of forwarded TaggedPackets and
  /// ClientActions — the two per-message hot paths — from zero-copy views
  /// (neither consumes the payload bytes: remote events update ghosts,
  /// actions re-tag a fresh payload).  A frame the view rejects is
  /// malformed for decode_message too, so on_message never sees either.
  bool on_frame(const Envelope& envelope) override;

 private:
  struct Session {
    NodeId client_node;
    EntityId avatar;
    Vec2 position;
    std::uint32_t migrate_query_seq = 0;  ///< nonzero while migration pending
  };

  // client traffic
  void handle_hello(const ClientHello& hello, const Envelope& envelope);
  void handle_action(const ClientActionView& action, const Envelope& envelope);
  void handle_bye(const ClientBye& bye);

  // Matrix callbacks
  void apply_remote_event(const TaggedPacketView& packet);
  void handle_map_range(const MapRange& range);
  void handle_state_transfer(const StateTransfer& transfer);
  void handle_client_state(const ClientStateTransfer& transfer);
  void handle_owner_reply(const OwnerReply& reply);
  void handle_admission(const AdmissionUpdate& update);
  void handle_directive(const AdmissionDirective& directive);
  void handle_queue_handoff(const QueueHandoff& handoff);
  // Control-plane failsafe (src/control/control_plane.h): heartbeat intake,
  // the degradation tick, and the FALLBACK entry hook that rescinds frozen
  // coordinator state in favour of the local valve.
  void handle_heartbeat(const McHeartbeat& beat);
  void schedule_failsafe_tick();
  void on_failsafe_degraded();
  /// The admission gate for a fresh (non-resume) join; true ⇒ admit.
  [[nodiscard]] bool admit_join(const ClientHello& hello, NodeId client_node);
  /// Trace-layer bookkeeping (src/obs/) for a refused join: records the
  /// deny/defer event and retires the client's open admit/queue-wait spans.
  /// No-ops when tracing is disabled.
  void trace_join_deferred(ClientId client);
  void trace_join_denied(ClientId client);
  /// Creates the session and sends Welcome (the post-gate half of a join).
  void admit_session(ClientId client, NodeId client_node, Vec2 position,
                     std::uint32_t redirect_seq);

  // surge queue (src/control/surge_queue.h)
  void park_join(const ClientHello& hello, NodeId client_node);
  /// Admits from the queue while the valve and token budget allow.
  void drain_surge_queue();
  /// Position/ETA notification to one waiting client.  `position` is the
  /// client's 1-based rank (callers already hold the drain order; passing
  /// it in keeps the notification sweep O(n log n), not O(n² log n)).
  void send_queue_update(ClientId client, NodeId client_node,
                         std::uint32_t position, std::uint32_t depth);
  void schedule_queue_tick();
  /// Zeroes the vip_drain_cap tallies once the room is empty — called on
  /// EVERY path that can empty it (drain, flush, handoff, ClientBye), so
  /// each occupancy episode starts with a fresh fairness window.
  void reset_drain_fairness_if_empty();
  /// Sends every parked join back to client-side retry (server lost its
  /// range, or is shutting its waiting room).
  void flush_surge_queue();
  /// True while displaced parked joins should be handed to the new owner
  /// instead of flushed (global admission directive active).
  [[nodiscard]] bool queue_handoff_active() const;
  /// Hands `entries` to `to_game` via Matrix (no-op on empty).
  void send_queue_handoff(std::vector<SurgeEntry> entries, NodeId to_game);

  void redirect_client(ClientId client, Session& session, NodeId to_game,
                       ServerId to_server);
  void broadcast_event(Vec2 origin, double radius, SimTime origin_sent_at,
                       std::uint8_t kind, ClientId actor,
                       std::uint32_t actor_seq);
  void maybe_migrate(ClientId client, Session& session);
  void schedule_load_report();
  void schedule_update_tick();
  [[nodiscard]] LoadReport build_load_report();
  [[nodiscard]] double radius_for(std::uint8_t radius_class) const;
  /// Deterministic exceptional-radius assignment by client id (stable
  /// across handoffs because client ids are globally unique).
  [[nodiscard]] std::uint8_t radius_class_for(ClientId client) const;

  ServerId id_;
  GameModelSpec spec_;
  Config config_;
  std::unique_ptr<MatrixPort> port_;

  Rect authority_;
  /// The per-tick hot table (median/fan-out/estimate sweeps): sorted-vector
  /// storage, ascending-ClientId iteration exactly like the std::map it
  /// replaced (send order is trace-visible — the golden hashes pin it).
  FlatMap<ClientId, Session> sessions_;
  std::map<EntityId, Entity> map_objects_;
  /// Ghost replicas of remote avatars, updated once per forwarded packet —
  /// a hot-path table (flat open-address storage; see game/ghost_table.h
  /// for why iteration order cannot perturb traces).
  GhostTable ghosts_;
  /// Avatar state that arrived (ClientStateTransfer) before the client's
  /// hello; consumed when the hello lands.
  FlatMap<ClientId, Entity> pending_avatars_;

  /// Events accumulated since the last update tick, flushed as one digest
  /// ServerUpdate per interested client (real servers batch exactly like
  /// this; per-event broadcast would melt both the real and simulated NIC).
  struct PendingEvent {
    Vec2 origin;
    double radius;
    SimTime sent_at;
    std::uint8_t kind;
  };
  std::vector<PendingEvent> pending_events_;
  /// Oldest sent_at among pending_events_ (valid while non-empty),
  /// maintained on push so the update tick does not rescan the batch.
  SimTime pending_oldest_{};

  void push_pending(const PendingEvent& event) {
    if (pending_events_.empty() || event.sent_at < pending_oldest_) {
      pending_oldest_ = event.sent_at;
    }
    pending_events_.push_back(event);
  }

  /// Scratch bucket grid for the update tick's visible-entity estimate: an
  /// epoch-stamped open-address table (linear probing, ≤25% load factor)
  /// kept across ticks.  Epoch stamping makes "clear" a counter increment,
  /// so the tick performs no allocation and no table wipe in steady state.
  /// Count sums are order-independent, so determinism is unaffected.
  std::vector<std::uint64_t> grid_keys_;
  std::vector<std::uint32_t> grid_counts_;
  std::vector<std::uint32_t> grid_stamps_;
  std::uint32_t grid_epoch_ = 0;

  void grid_prepare(std::size_t entries);
  void grid_bump(std::uint64_t key);
  [[nodiscard]] std::uint32_t grid_count(std::uint64_t key) const;

  std::uint32_t next_redirect_seq_ = 1;
  std::uint32_t next_query_seq_ = 1;
  std::uint64_t next_object_serial_ = 1;
  std::uint64_t started_epoch_ = 0;
  bool started_ = false;
  std::uint64_t msgs_since_report_ = 0;
  SimTime last_report_at_{};

  // Admission enforcement (src/control/): the Matrix server decides the
  // state; this server spends the SOFT-mode token budget locally so no
  // per-join round trip exists.
  AdmissionState admission_state_ = AdmissionState::kNormal;
  TokenBucket join_bucket_{config_.admission.token_rate_per_sec,
                           config_.admission.token_burst};
  // Coordinator-led global admission (src/control/global_admission.h):
  // floor composed into the gate, token share swapped into join_bucket_.
  AdmissionState directive_floor_ = AdmissionState::kNormal;
  bool directive_active_ = false;
  /// Epoch/seq admission for every coordinator-originated state flip
  /// (AdmissionUpdate, AdmissionDirective, relayed McHeartbeat) plus the
  /// heartbeat-freshness failsafe state machine.  Replaces the old ad-hoc
  /// admission_seq_seen_ / directive_seq_seen_ watermarks.
  ControlPlane control_plane_{config_.failsafe};
  // Surge queue (src/control/surge_queue.h): the server-owned waiting room
  // replacing client-side defer-retry when enabled.
  SurgeQueue surge_queue_{config_.admission.priority};
  bool queue_tick_scheduled_ = false;
  /// Fairness tallies for `priority.vip_drain_cap`: admissions (and VIP
  /// admissions) since the room last became non-empty.  Persist across
  /// drain calls so a token-bound one-admit-per-tick drain still converges
  /// to the capped share; reset when the room empties.
  std::uint64_t drain_vip_ = 0;
  std::uint64_t drain_total_ = 0;

  /// Gated fresh joins seen — only advanced when the TEST-ONLY
  /// Config::fault.swallow_gated_join_every knob is armed.
  std::uint64_t fault_gated_seen_ = 0;

  Stats stats_;
};

}  // namespace matrix
