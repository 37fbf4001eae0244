// Matrix middleware configuration.
//
// Defaults follow the paper's evaluation where it gives numbers: overload at
// 300 clients, underload below 150 clients (Fig. 2 caption).  The hysteresis
// knobs implement the paper's "simple heuristics (not described) to prevent
// oscillations" — our concrete choices are documented in docs/ARCHITECTURE.md.
// Every knob is tabulated with its default and effect in docs/CONFIG.md.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geometry/metric.h"
#include "geometry/rect.h"
#include "util/sim_time.h"

namespace matrix {

/// How a Matrix server decides where to cut its partition when overloaded.
enum class SplitPolicy {
  /// Paper §3.2.3: halve the partition, hand the left piece to the new
  /// server.  (Across the longer dimension, so repeated splits don't
  /// produce degenerate slivers.)
  kSplitToLeft,
  /// Extension (paper future work via refs [14,15]): cut at the reported
  /// median client coordinate so each side inherits ~half the load.
  kLoadAware,
};

/// Knobs for the surge-queue "waiting room" (src/control/surge_queue.h):
/// when the admission valve is SOFT/HARD, new joins are parked in a bounded
/// priority queue (RESUME > VIP > NORMAL) instead of bounced back to the
/// client, and drained as the token budget refills or the valve relaxes.
/// Disabled by default: with `queue_enabled == false` the PR-1 behaviour
/// (JoinDefer/JoinDeny with client-side retry) is bit-identical.
struct SurgePriorityConfig {
  bool queue_enabled = false;

  /// Maximum parked joins per game server; an enqueue beyond this falls
  /// back to JoinDeny (the waiting room itself must stay bounded).
  std::uint32_t queue_capacity = 256;

  /// Anti-starvation aging: after each `age_step` of waiting, an entry is
  /// promoted one priority class (NORMAL → VIP → RESUME), so a NORMAL join
  /// cannot be overtaken forever by a stream of fresh VIPs.  0 disables
  /// aging (strict class order).
  SimTime age_step = SimTime::from_sec(10.0);

  /// Cadence of the drain/notify tick while the queue is non-empty: each
  /// tick admits what the token budget allows and pushes a QueueUpdate
  /// (position, depth, ETA) to every still-waiting client.
  SimTime update_interval = SimTime::from_ms(500);

  /// Paid-priority fairness cap: while the room stays occupied, at most
  /// this fraction of drained entries may go out at VIP effective class
  /// (tallies reset when the room empties).  The cap acts on the EFFECTIVE
  /// class: RESUME — including anything aged up to RESUME — is never
  /// capped, while a NORMAL aged to VIP is capped like a paid VIP until
  /// its next promotion.  When the cap binds and a NORMAL entry is
  /// waiting, the NORMAL entry is admitted instead — so a paid lane can
  /// never monopolise the door.  1.0 disables the cap (PR-2 behaviour).
  double vip_drain_cap = 1.0;
};

/// Knobs for coordinator-led global admission (src/control/
/// global_admission.h): the Matrix Coordinator aggregates per-server load
/// digests and pool occupancy into a deployment-wide pressure score and
/// broadcasts AdmissionDirective messages — a floor state every server must
/// hold plus per-server token-budget shares weighted by waiting-room depth.
/// Disabled by default: no digests, no directives, PR-2 per-server
/// behaviour bit-for-bit.
struct GlobalAdmissionConfig {
  bool enabled = false;

  // ---- pressure thresholds --------------------------------------------------
  /// Directive floor goes SOFT at this pressure score (see
  /// GlobalAdmission::pressure() for the score's composition)...
  double soft_pressure = 0.65;
  /// ...and HARD at this one.
  double hard_pressure = 0.85;

  // ---- deployment-wide token budget ----------------------------------------
  /// Total SOFT-mode admits per second across the whole deployment while a
  /// directive is in force, divided among servers in proportion to their
  /// waiting-room depth (starved partitions drain first).
  double token_rate_total = 32.0;
  /// Minimum per-server share, so a server with an empty waiting room is
  /// never starved of its trickle of fresh joins.
  double token_rate_floor = 1.0;

  // ---- hysteresis (same contract as the local valve) ------------------------
  /// Floor escalation is immediate; relaxation steps down one level at a
  /// time after `recover_min` of continuous calm and `dwell` since the last
  /// floor change — machine-checked by admission_timeline_valid.
  SimTime dwell = SimTime::from_sec(2.0);
  SimTime recover_min = SimTime::from_sec(5.0);

  /// Minimum gap between share-refresh broadcasts while the floor is
  /// unchanged (floor changes broadcast immediately).  Bounds directive
  /// traffic to ~N_servers messages per interval.
  SimTime directive_interval = SimTime::from_sec(1.0);

  /// Cross-server queue handoff: while a directive is active, parked joins
  /// displaced by a split/reclaim re-park on the server that now owns their
  /// region (class and accrued age preserved) instead of being flushed back
  /// to client-side retry.
  bool queue_handoff = true;
};

/// Which LoadPolicy implementation (src/policy/) a deployment runs.
enum class LoadPolicyKind : std::uint8_t {
  /// Bit-for-bit port of the historical inline decision logic: threshold +
  /// hysteresis splits, headroom-gated reclaims, FCFS pool grants.
  kClassic = 0,
  /// ClassicPolicy plus the coordinator-directive extensions: need-weighted
  /// pool-grant arbitration and directive-driven proactive load-aware
  /// splits.  Identical to kClassic while no directive is in force.
  kDirective = 1,
};

/// Process-level default for PolicyConfig::kind.  Reads the
/// MATRIX_LOAD_POLICY environment variable once ("classic" / "directive";
/// unset or unrecognized ⇒ kClassic), so CI's policy-matrix leg can run the
/// whole test suite under DirectivePolicy without touching any test code.
[[nodiscard]] LoadPolicyKind default_load_policy_kind();

[[nodiscard]] const char* load_policy_kind_name(LoadPolicyKind kind);

/// Knobs for the pluggable load-policy layer (src/policy/): the one place
/// deciding when/where a partition splits, when a child is reclaimed, and
/// which requester wins a contested pool server.  The default ClassicPolicy
/// reproduces the pre-policy-layer behavior bit-for-bit; every knob below
/// it only takes effect under DirectivePolicy.
struct PolicyConfig {
  LoadPolicyKind kind = default_load_policy_kind();

  // ---- need-weighted pool grants (DirectivePolicy) -------------------------
  /// How long the resource pool holds a need-tagged PoolAcquire before
  /// arbitrating, so simultaneous requesters contend on need instead of
  /// message arrival order.  Requests with need 0 (ClassicPolicy, or no
  /// directive in force) are never held — grant/deny stays immediate.
  SimTime grant_window = SimTime::from_ms(250);
  /// Weight of the waiting-room depth in the need score, relative to the
  /// load fraction (the MC's pressure score weights starvation the same
  /// way: the deepest line is the most starved partition).
  double need_waiting_weight = 2.0;

  // ---- directive-driven proactive splits (DirectivePolicy) -----------------
  /// While a coordinator directive is active, split as soon as reported
  /// clients reach this fraction of overload_clients — before the valve
  /// ever reaches HARD — instead of waiting out the full overload +
  /// sustain hysteresis.  The cut is load-aware (median) regardless of
  /// split_policy: a proactive split exists to shed the hotspot.
  double proactive_load_fraction = 0.80;
  /// A proactive split also requires this many parked joins: an empty
  /// waiting room means the valve is coping and the split can wait for the
  /// ordinary thresholds.
  std::uint32_t proactive_min_waiting = 8;
};

/// Knobs for the admission & overload-protection subsystem (src/control/).
/// Disabled by default: the paper's evaluation never models the
/// beyond-capacity regime, so the faithful benches run with the valve off.
struct AdmissionConfig {
  bool enabled = false;

  // ---- escalation thresholds ----------------------------------------------
  /// SOFT when reported clients reach this fraction of overload_clients.
  double soft_load_fraction = 0.85;
  /// HARD when reported clients reach this fraction of overload_clients.
  double hard_load_fraction = 1.15;
  /// Receive-queue depths (messages) triggering SOFT / HARD.
  std::uint32_t soft_queue_length = 1500;
  std::uint32_t hard_queue_length = 4000;
  /// Consecutive PoolDeny answers (split wanted, no spare server) that
  /// trigger SOFT / HARD — the "pool is exhausted and I am still hot" case.
  std::uint32_t soft_denied_streak = 1;
  std::uint32_t hard_denied_streak = 3;
  /// Surge-queue depths (parked joins) triggering SOFT / HARD: a waiting
  /// room that keeps deepening means the token budget is losing the race
  /// and the valve should say so.  0 disables (default — PR-2 behaviour).
  std::uint32_t soft_waiting_count = 0;
  std::uint32_t hard_waiting_count = 0;
  /// Pool-pressure pre-escalation: when the deployment-wide idle fraction
  /// is at or below soft_pool_idle_fraction AND this server already carries
  /// pool_pressure_load_fraction × overload_clients, go SOFT before the
  /// local thresholds fire (a split is unlikely to be granted).
  double soft_pool_idle_fraction = 0.0;
  double pool_pressure_load_fraction = 0.70;

  // ---- SOFT-mode token budget ---------------------------------------------
  /// Joins admitted per second while SOFT, and the burst allowance.
  double token_rate_per_sec = 20.0;
  double token_burst = 40.0;

  // ---- hysteresis (mandatory) ---------------------------------------------
  /// No transition may follow another within the dwell time...
  SimTime dwell = SimTime::from_sec(2.0);
  /// ...and relaxation additionally requires the signals to sit below the
  /// current state's severity continuously for this long.  Escalation is
  /// exempt from both: a saturated server closes the valve immediately.
  SimTime recover_min = SimTime::from_sec(5.0);

  /// TEST-ONLY fault injection (docs/TESTING.md): relax the valve as soon
  /// as the dwell passes, ignoring recover_min — the hysteresis bug the
  /// timeline invariant (admission_timeline_valid) exists to catch.  The
  /// validator keeps judging against the REAL recover_min, so enabling
  /// this makes lifetime_timeline_valid() report false.  Never set outside
  /// tests/fuzz_test.cpp.
  bool fault_skip_recover_min = false;

  // ---- client guidance ------------------------------------------------------
  /// Retry hint carried by JoinDefer (SOFT) and JoinDeny (HARD).
  SimTime defer_retry = SimTime::from_sec(2.0);
  SimTime deny_retry = SimTime::from_sec(10.0);

  // ---- surge queue ("waiting room") -----------------------------------------
  SurgePriorityConfig priority;

  // ---- coordinator-led global admission -------------------------------------
  GlobalAdmissionConfig global;
};

/// Knobs for the control-plane failsafe (src/control/control_plane.h):
/// every matrix/game server runs a heartbeat-driven state machine that
/// degrades NORMAL → HOLD → FALLBACK as coordinator heartbeats go stale,
/// so a dead or partitioned MC can never keep steering valves and pool
/// grants through a directive it broadcast before it died.  Disabled by
/// default: no heartbeats are sent, no ticks are scheduled, and behaviour
/// (including every golden-trace hash) is bit-identical to a pre-failsafe
/// deployment.
struct FailsafeConfig {
  bool enabled = false;

  /// Coordinator → matrix-server McHeartbeat cadence (matrix servers relay
  /// each beat to their game server, so both ends share one freshness
  /// clock).
  SimTime heartbeat_interval = SimTime::from_sec(1.0);

  /// Heartbeat silence at which a server enters HOLD: the current
  /// directive/pool view is frozen — still in force, but no longer a basis
  /// for new pool-grant-seeking decisions (DirectivePolicy need drops to
  /// zero, proactive splits stop).
  SimTime tau1 = SimTime::from_sec(3.0);

  /// Heartbeat silence at which a server enters FALLBACK: deterministic
  /// local-only behaviour.  The frozen directive is dropped (local valve
  /// and local token rate take back over), splits that would need a pool
  /// grant are suppressed, and reclaim turns conservative (only an empty
  /// child is merged back).  Must be > tau1.
  SimTime tau2 = SimTime::from_sec(8.0);

  /// Cadence of the local staleness check while enabled.  Bounds how late
  /// after tau1/tau2 a transition can fire.
  SimTime check_interval = SimTime::from_ms(500);
};

namespace obs {
/// Process-level default for ObsConfig::trace_enabled: reads the
/// MATRIX_TRACE environment variable once (defined in src/obs/trace.cpp).
[[nodiscard]] bool default_trace_enabled();
}  // namespace obs

/// Knobs for the sharded parallel simulation engine (src/net/network.h,
/// docs/ARCHITECTURE.md "Parallel engine").  Default: one shard — the serial
/// engine, byte-identical to every pre-sharding golden trace.
struct EngineConfig {
  /// Number of event-queue shards the deployment's nodes are partitioned
  /// into.  Each shard owns its own EventQueue, BufferPool, RNG stream, and
  /// trace buffer; shards synchronize with conservative lookahead windows
  /// derived from the minimum cross-shard link latency.  1 = serial.
  std::size_t shards = 1;
  /// Run shard windows on persistent worker threads.  Results are identical
  /// either way — that is the determinism contract — so this only buys
  /// wall-clock on multi-core hosts.  MATRIX_SHARD_THREADS overrides
  /// ("0"/"off" forces sequential, "1"/"on" forces threads).
  bool threads = true;
  /// Shard load rebalancing: when busiest/mean per-shard executed-event
  /// ratio for an epoch exceeds this, one colocated matrix+game node group
  /// migrates from the busiest shard to the idlest at a window barrier.
  /// <= 0 (the default) disables rebalancing entirely — seed behavior,
  /// including every pinned K>1 hash, is then byte-identical.  Sensible
  /// values start around 1.15–1.5.  The trigger derives from event counts
  /// only (never wall time), so fixed-K runs stay run-to-run reproducible.
  double rebalance_threshold = 0.0;
  /// Executed events (summed over shards) between imbalance evaluations.
  std::uint64_t rebalance_interval_events = 250'000;
};

/// Knobs for the observability layer (src/obs/): structured tracing, the
/// flight-recorder ring, and span pairing.  Mirrors obs::TraceOptions so
/// configuring a deployment does not pull in the obs headers.  Disabled by
/// default — every hook then costs one predictable branch and the golden
/// determinism hashes are unchanged (the passivity contract,
/// docs/OBSERVABILITY.md).
struct ObsConfig {
  /// Master switch: Deployment enables its network's Tracer when set.
  bool trace_enabled = obs::default_trace_enabled();
  /// Flight-recorder depth (most recent events kept).
  std::size_t ring_capacity = 8192;
  /// Concurrently-open span capacity (opens beyond it are dropped and
  /// counted, never allocated).
  std::size_t span_capacity = 1 << 15;
  /// Record a trace event for every Network::send (the firehose).
  bool record_sends = true;
};

/// TEST-ONLY fault injection (docs/TESTING.md).  Each knob makes one layer
/// misbehave in a way that violates exactly one class of trace invariant,
/// so tests/fuzz_test.cpp can prove the invariants harness
/// (src/fuzz/invariants.h) actually catches that class of bug — a fuzzer
/// that has never been shown to fail proves nothing.  All knobs default
/// off, in which case behaviour is bit-identical to a Config without this
/// struct.  Never enable outside tests.
struct FaultConfig {
  /// Swallow every Nth gated fresh join at the valve: no JoinDefer/JoinDeny
  /// reply, no waiting-room park — the hello simply black-holes.  Violates
  /// the blackhole invariant (and leaks the client's admit span).
  /// 0 disables.
  std::uint32_t swallow_gated_join_every = 0;
  /// Drop the QueueHandoff message on split/reclaim instead of sending it:
  /// the extracted waiting-room entries vanish in transit.  Violates queue
  /// conservation (handoff sent, never adopted/deferred/dropped).
  bool drop_queue_handoff = false;
  /// Reset enqueued_at to the adoption instant when adopting a handed-off
  /// queue entry: the accrued age is lost in transit.  Violates age
  /// conservation across handoff.
  bool reset_handoff_age = false;
  /// Erase the first session in each shed range without sending a
  /// Redirect: the trace says the client is playing here, the server no
  /// longer has the session.  Violates client-count conservation.
  bool leak_session_on_shed = false;
  /// Re-apply every coordinator directive a second time through the
  /// control plane, bypassing its staleness rejection — the classic
  /// stale-directive bug the epoch/seq monotonicity invariant
  /// (kInvControlMonotonic) exists to catch: the same (epoch, seq) acts
  /// twice, so the per-server control-applied stream stops strictly
  /// increasing.
  bool stale_directive_replay = false;

  [[nodiscard]] bool any() const {
    return swallow_gated_join_every != 0 || drop_queue_handoff ||
           reset_handoff_age || leak_session_on_shed ||
           stale_directive_replay;
  }
};

struct Config {
  // ---- world ---------------------------------------------------------------
  Rect world{0.0, 0.0, 1000.0, 1000.0};
  /// Default radius of visibility R.  Games override this at registration
  /// (paper §3.2.2: "the game server ... sends Matrix the visibility radius").
  double visibility_radius = 60.0;
  Metric metric = Metric::kChebyshev;

  // ---- load thresholds (paper Fig. 2 caption) -------------------------------
  /// A game server is overloaded at or above this many clients.
  std::uint32_t overload_clients = 300;
  /// A game server is underloaded strictly below this many clients.
  std::uint32_t underload_clients = 150;
  /// Overload can also be declared on receive-queue depth ("via system
  /// performance measurements", §3.2.3).  0 disables the queue trigger.
  std::uint32_t overload_queue_length = 0;

  // ---- split / reclaim behaviour -------------------------------------------
  /// Disabling both turns a Matrix deployment into the static-partitioning
  /// baseline: identical routing, no adaptation.  That is exactly the
  /// comparison the paper's §4 makes.
  bool allow_split = true;
  bool allow_reclaim = true;
  SplitPolicy split_policy = SplitPolicy::kSplitToLeft;
  /// Minimum partition width/height; a server at this size refuses to split
  /// further (prevents unbounded recursion on a point hotspot).
  double min_partition_extent = 4.0;
  /// Number of consecutive overloaded load reports required before a split
  /// is initiated (hysteresis).
  std::uint32_t sustain_reports_to_split = 2;
  /// Quiet period after any topology change during which this server will
  /// not initiate another split or reclaim (hysteresis).
  SimTime topology_cooldown = SimTime::from_sec(5.0);
  /// Reclaim requires parent + child combined load to fit within this
  /// fraction of the overload threshold (prevents reclaim→overload→split
  /// oscillation).
  double reclaim_headroom_fraction = 0.8;

  // ---- pool-exhaustion retry backoff ---------------------------------------
  /// Quiet period before re-asking the pool after a PoolDeny; doubles with
  /// every consecutive denial (capped) so an exhausted pool is not hammered
  /// at the load-report rate.  0 ⇒ start from topology_cooldown, which
  /// keeps the first retry identical to the original flat-cooldown
  /// behaviour.
  SimTime pool_backoff_initial{};
  SimTime pool_backoff_max = SimTime::from_sec(60.0);

  // ---- admission & overload protection (src/control/) ----------------------
  AdmissionConfig admission;

  // ---- control-plane failsafe (src/control/control_plane.h) -----------------
  FailsafeConfig failsafe;

  // ---- pluggable load-policy layer (src/policy/) ----------------------------
  PolicyConfig policy;

  // ---- observability (src/obs/) ---------------------------------------------
  ObsConfig obs;

  // ---- parallel engine (src/net/network.h) ----------------------------------
  EngineConfig engine;

  // ---- test-only fault injection (tests/fuzz_test.cpp) ----------------------
  FaultConfig fault;

  // ---- reporting cadence ----------------------------------------------------
  /// Game server → Matrix server load report interval.
  SimTime load_report_interval = SimTime::from_ms(500);
  /// Child → parent Matrix server load heartbeat interval.
  SimTime peer_load_interval = SimTime::from_ms(1000);

  [[nodiscard]] bool overloaded(std::uint32_t clients,
                                std::uint32_t queue_len) const {
    if (clients >= overload_clients) return true;
    return overload_queue_length > 0 && queue_len >= overload_queue_length;
  }
  [[nodiscard]] bool underloaded(std::uint32_t clients) const {
    return clients < underload_clients;
  }
};

}  // namespace matrix
