// Wire protocol.
//
// Every message exchanged between game clients, game servers, Matrix
// servers, the Matrix Coordinator (MC), and the resource pool.  Messages are
// encoded to bytes (util/codec.h) before hitting the network so that wire
// sizes — and therefore the bandwidth results — are physically meaningful.
//
// Component roles and the messages they exchange (paper §3.2):
//
//   client  → game    : ClientHello, ClientAction, ClientBye
//   game    → client  : Welcome, ServerUpdate, Redirect, JoinDeny, JoinDefer,
//                       QueueUpdate
//   game    → matrix  : TaggedPacket, LoadReport, ShedDone
//   matrix  → game    : TaggedPacket (verified), MapRange, AdmissionUpdate,
//                       AdmissionDirective (relay)
//   matrix  ↔ matrix  : TaggedPacket (peer forward), Adopt, PeerLoad,
//                       ReclaimRequest, ReclaimDone, StateTransfer (relay),
//                       ClientStateTransfer (relay), QueueHandoff (relay)
//   matrix  ↔ MC      : ServerRegister, ServerUnregister, OverlapTableMsg,
//                       PointLookup, PointOwner, LoadDigest
//   matrix  ↔ pool    : PoolAcquire, PoolGrant, PoolDeny, PoolRelease
//   pool    → MC      : PoolStatus;  MC → matrix : PoolPressure,
//                       AdmissionDirective
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/server_set.h"
#include "geometry/rect.h"
#include "geometry/vec2.h"
#include "util/codec.h"
#include "util/ids.h"
#include "util/payload_bytes.h"
#include "util/sim_time.h"

namespace matrix {

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

/// A spatially-tagged game packet (paper §3.1).  The game server tags each
/// client packet with the world coordinates of the packet's origin (and
/// destination for non-proximal interactions); Matrix routes on the tags and
/// never parses `payload` — that is the layering the paper's API promises.
///
/// The three payload-carrying messages (this one, ClientAction and
/// ServerUpdate) are templates over the payload's type: PayloadBytes in the
/// Message itself, a span into the received frame in the zero-copy views
/// (see "Zero-copy frame views" below).  One field description serves both.
template <typename Payload>
struct BasicTaggedPacket {
  ClientId client;            ///< globally-unique originating player
  EntityId entity;            ///< acting entity
  Vec2 origin;                ///< where in the world the event happened
  std::optional<Vec2> target; ///< set only for non-proximal interactions
  std::uint8_t radius_class = 0;  ///< 0 = game default R; else exceptional R
  std::uint8_t kind = 0;          ///< game-defined opcode (opaque to Matrix)
  std::uint32_t seq = 0;          ///< client action sequence (latency pairing)
  SimTime client_sent_at{};       ///< stamped by client; for latency metrics
  bool peer_forwarded = false;    ///< set on matrix→matrix relay (no re-fwd)
  Payload payload;                ///< game-specific body (opaque)

  static void fields(auto& m, auto&& f) {
    f(m.client, m.entity, m.origin, m.target, m.radius_class, m.kind, m.seq,
      m.client_sent_at, m.peer_forwarded, m.payload);
  }
  bool operator==(const BasicTaggedPacket&) const = default;
};
using TaggedPacket = BasicTaggedPacket<PayloadBytes>;

// ---------------------------------------------------------------------------
// Client ↔ game server
// ---------------------------------------------------------------------------

/// First message from a client to a game server.  `resume` is set when the
/// client was redirected here mid-game (its avatar state arrives separately
/// server→server via ClientStateTransfer).
struct ClientHello {
  ClientId client;
  Vec2 position;
  bool resume = false;
  std::uint32_t redirect_seq = 0;  ///< pairs with Redirect for switch latency
  /// Priority hint for the surge queue (src/control/surge_queue.h):
  /// 0 = NORMAL, 1 = VIP.  Resumes outrank both and are flagged by `resume`,
  /// not here.  Ignored entirely while the waiting room is disabled.
  std::uint8_t priority = 0;

  static void fields(auto& m, auto&& f) {
    f(m.client, m.position, m.resume, m.redirect_seq, m.priority);
  }
  bool operator==(const ClientHello&) const = default;
};

struct Welcome {
  ClientId client;
  EntityId avatar;
  Rect authority;                  ///< the server's current map range
  std::uint32_t redirect_seq = 0;

  static void fields(auto& m, auto&& f) {
    f(m.client, m.avatar, m.authority, m.redirect_seq);
  }
  bool operator==(const Welcome&) const = default;
};

/// A player input: move / fire / interact, stamped for latency measurement.
template <typename Payload>
struct BasicClientAction {
  ClientId client;
  std::uint8_t kind = 0;
  Vec2 position;                    ///< client's believed position
  std::optional<Vec2> target;       ///< e.g. shot aim point, teleport target
  std::uint32_t seq = 0;
  SimTime sent_at{};
  Payload payload;

  static void fields(auto& m, auto&& f) {
    f(m.client, m.kind, m.position, m.target, m.seq, m.sent_at, m.payload);
  }
  bool operator==(const BasicClientAction&) const = default;
};
using ClientAction = BasicClientAction<PayloadBytes>;

/// Game server → client state delta.  `ack_seq` is nonzero when this update
/// is the direct reaction to that client's own action (self-latency); the
/// embedded origin timestamp measures observer latency at other clients.
template <typename Payload>
struct BasicServerUpdate {
  std::uint8_t kind = 0;
  Vec2 position;
  std::uint32_t ack_seq = 0;
  SimTime origin_sent_at{};
  Payload payload;

  static void fields(auto& m, auto&& f) {
    f(m.kind, m.position, m.ack_seq, m.origin_sent_at, m.payload);
  }
  bool operator==(const BasicServerUpdate&) const = default;
};
using ServerUpdate = BasicServerUpdate<PayloadBytes>;

/// Orders a client to reconnect to a different game server (paper §3.2.1:
/// "the client is informed of these switches by its current game server").
struct Redirect {
  NodeId new_game_node;
  ServerId new_server;
  std::uint32_t redirect_seq = 0;

  static void fields(auto& m, auto&& f) {
    f(m.new_game_node, m.new_server, m.redirect_seq);
  }
  bool operator==(const Redirect&) const = default;
};

struct ClientBye {
  ClientId client;

  static void fields(auto& m, auto&& f) {
    f(m.client);
  }
  bool operator==(const ClientBye&) const = default;
};

// ---------------------------------------------------------------------------
// Game server ↔ its Matrix server (same host, paper §3.2.2)
// ---------------------------------------------------------------------------

/// Periodic load report (paper §3.2.2: "the game server also periodically
/// reports its current load").  The median position feeds the load-aware
/// split-policy extension; split-to-left ignores it.
struct LoadReport {
  std::uint32_t client_count = 0;
  std::uint32_t queue_length = 0;
  double msgs_per_sec = 0.0;
  Vec2 median_position;
  /// Joins parked in the surge queue (src/control/surge_queue.h); 0 while
  /// the waiting room is disabled.  Surfaced in MatrixServer::Stats.
  std::uint32_t waiting_count = 0;

  static void fields(auto& m, auto&& f) {
    f(m.client_count, m.queue_length, m.msgs_per_sec, m.median_position,
      m.waiting_count);
  }
  bool operator==(const LoadReport&) const = default;
};

/// Matrix server → game server: your authoritative range changed.  When
/// `shed_range` is non-empty the game server must transfer map-object state
/// in that range and redirect the clients standing in it to `shed_to_game`.
struct MapRange {
  Rect new_range;
  Rect shed_range;                  ///< empty ⇒ nothing to shed
  NodeId shed_to_game;
  ServerId shed_to_server;
  bool reclaim = false;             ///< true ⇒ shedding everything to parent
  std::uint64_t topology_epoch = 0;

  static void fields(auto& m, auto&& f) {
    f(m.new_range, m.shed_range, m.shed_to_game, m.shed_to_server, m.reclaim,
      m.topology_epoch);
  }
  bool operator==(const MapRange&) const = default;
};

/// Game server → Matrix server: the shed ordered by MapRange has finished
/// (all state transferred, all clients redirected).
struct ShedDone {
  std::uint64_t topology_epoch = 0;
  std::uint32_t clients_redirected = 0;

  static void fields(auto& m, auto&& f) {
    f(m.topology_epoch, m.clients_redirected);
  }
  bool operator==(const ShedDone&) const = default;
};

/// Game server → Matrix server: "which game server owns this point?"
/// Used when a client walks out of this server's authority range — the paper
/// says "Matrix provides the identity of the appropriate game server".  The
/// Matrix server resolves it via the MC's point lookup.
struct OwnerQuery {
  Vec2 point;
  ClientId client;
  std::uint32_t seq = 0;

  static void fields(auto& m, auto&& f) {
    f(m.point, m.client, m.seq);
  }
  bool operator==(const OwnerQuery&) const = default;
};

/// Matrix server → game server: answer to OwnerQuery.
struct OwnerReply {
  ClientId client;
  std::uint32_t seq = 0;
  bool found = false;
  ServerId server;
  NodeId game_node;

  static void fields(auto& m, auto&& f) {
    f(m.client, m.seq, m.found, m.server, m.game_node);
  }
  bool operator==(const OwnerReply&) const = default;
};

// ---------------------------------------------------------------------------
// Matrix server ↔ Matrix server
// ---------------------------------------------------------------------------

/// Parent → newly-granted Matrix server: take over `range`.  Static content
/// is *not* shipped — `content_keys` are pointers into the pre-cached store
/// (paper §3.2.3: "only pointers to the cached state" are sent).
struct Adopt {
  ServerId parent;
  NodeId parent_matrix;
  NodeId parent_game;
  Rect range;
  double visibility_radius = 0.0;
  std::vector<double> extra_radii;  ///< exceptional radius classes, in order
  std::vector<std::string> content_keys;
  std::uint64_t topology_epoch = 0;

  static void fields(auto& m, auto&& f) {
    f(m.parent, m.parent_matrix, m.parent_game, m.range, m.visibility_radius,
      m.extra_radii, m.content_keys, m.topology_epoch);
  }
  bool operator==(const Adopt&) const = default;
};

/// Child → parent heartbeat enabling the parent's reclaim decision.  A
/// child that has children of its own is not reclaimable (the subtree must
/// collapse leaf-first), hence `child_count`.
struct PeerLoad {
  ServerId server;
  std::uint32_t client_count = 0;
  std::uint32_t child_count = 0;

  static void fields(auto& m, auto&& f) {
    f(m.server, m.client_count, m.child_count);
  }
  bool operator==(const PeerLoad&) const = default;
};

/// Parent → child: begin reclamation (paper §3.2.3).  `topology_epoch` is
/// the ADOPTION TOKEN the parent issued this child in its Adopt message; a
/// child only honours requests bearing its own token, so a stale retry can
/// never reclaim a server that has since been re-granted to someone else.
struct ReclaimRequest {
  std::uint64_t topology_epoch = 0;

  static void fields(auto& m, auto&& f) {
    f(m.topology_epoch);
  }
  bool operator==(const ReclaimRequest&) const = default;
};

/// Child → parent: reclamation refused (the child is mid-split, already
/// reclaiming its own child, or the token was stale).  The parent clears
/// its pending state and may retry later.  Without an explicit decline, an
/// overload/underload interleaving can merge non-complementary rectangles
/// and tear the tiling invariant (see matrix_server.cpp's reclaim notes).
struct ReclaimDecline {
  ServerId child;
  std::uint64_t topology_epoch = 0;

  static void fields(auto& m, auto&& f) {
    f(m.child, m.topology_epoch);
  }
  bool operator==(const ReclaimDecline&) const = default;
};

/// Child → parent: reclamation finished; `range` returns to the parent.
struct ReclaimDone {
  ServerId child;
  Rect range;
  std::uint64_t topology_epoch = 0;

  static void fields(auto& m, auto&& f) {
    f(m.child, m.range, m.topology_epoch);
  }
  bool operator==(const ReclaimDone&) const = default;
};

/// Bulk game state (map objects) relayed game→matrix→matrix→game during
/// splits and reclaims.
struct StateTransfer {
  ServerId from_server;
  NodeId to_game;
  Rect range;
  std::uint32_t object_count = 0;
  std::vector<std::uint8_t> blob;

  static void fields(auto& m, auto&& f) {
    f(m.from_server, m.to_game, m.range, m.object_count, m.blob);
  }
  bool operator==(const StateTransfer&) const = default;
};

/// One switching client's avatar state, relayed server→server ahead of the
/// client's ClientHello at the destination.
struct ClientStateTransfer {
  ClientId client;
  EntityId entity;
  NodeId to_game;
  std::vector<std::uint8_t> blob;

  static void fields(auto& m, auto&& f) {
    f(m.client, m.entity, m.to_game, m.blob);
  }
  bool operator==(const ClientStateTransfer&) const = default;
};

// ---------------------------------------------------------------------------
// Matrix server ↔ Matrix Coordinator
// ---------------------------------------------------------------------------

/// Registers (or re-registers after a range change) a Matrix server with the
/// MC.  Upsert semantics: the MC replaces any previous range for `server`.
struct ServerRegister {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
  Rect range;
  std::vector<double> radii;  ///< game default first, then exceptional radii

  static void fields(auto& m, auto&& f) {
    f(m.server, m.matrix_node, m.game_node, m.range, m.radii);
  }
  bool operator==(const ServerRegister&) const = default;
};

struct ServerUnregister {
  ServerId server;

  static void fields(auto& m, auto&& f) {
    f(m.server);
  }
  bool operator==(const ServerUnregister&) const = default;
};

/// One member of an overlap region's consistency set.
struct OverlapPeer {
  ServerId server;
  NodeId matrix_node;

  static void fields(auto& m, auto&& f) { f(m.server, m.matrix_node); }
  bool operator==(const OverlapPeer&) const = default;
};

/// One overlap region as shipped to a Matrix server: every point in `rect`
/// has consistency set = `peers` (paper Fig. 1a).
struct OverlapRegionWire {
  Rect rect;
  std::vector<OverlapPeer> peers;

  static void fields(auto& m, auto&& f) { f(m.rect, m.peers); }
  bool operator==(const OverlapRegionWire&) const = default;
};

/// MC → Matrix server: your overlap table for one radius class.
struct OverlapTableMsg {
  ServerId server;
  Rect partition;
  std::uint8_t radius_class = 0;
  double radius = 0.0;
  std::uint64_t version = 0;  ///< MC recompute generation
  std::vector<OverlapRegionWire> regions;

  static void fields(auto& m, auto&& f) {
    f(m.server, m.partition, m.radius_class, m.radius, m.version, m.regions);
  }
  bool operator==(const OverlapTableMsg&) const = default;
};

/// Matrix server → MC: who owns this point?  Used only for the rare
/// non-proximal interactions (paper §3.2.4).
struct PointLookup {
  Vec2 point;
  std::uint32_t lookup_seq = 0;

  static void fields(auto& m, auto&& f) {
    f(m.point, m.lookup_seq);
  }
  bool operator==(const PointLookup&) const = default;
};

struct PointOwner {
  std::uint32_t lookup_seq = 0;
  bool found = false;
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;

  static void fields(auto& m, auto&& f) {
    f(m.lookup_seq, m.found, m.server, m.matrix_node, m.game_node);
  }
  bool operator==(const PointOwner&) const = default;
};

// ---------------------------------------------------------------------------
// Matrix server ↔ resource pool ("some non-Matrix external entity", §3.2.3)
// ---------------------------------------------------------------------------

/// Matrix server → pool: "I want to split; give me a spare."  `need` is the
/// requester's starvation score from the load-policy layer (src/policy/):
/// 0 under ClassicPolicy (or while no coordinator directive is in force) —
/// the pool answers immediately, FCFS — while a positive need asks the pool
/// to hold the request for `Config::policy.grant_window` and arbitrate a
/// contested spare toward the highest need (the partition the
/// global-admission pressure score says is most starved).
struct PoolAcquire {
  ServerId requester;
  double need = 0.0;

  static void fields(auto& m, auto&& f) {
    f(m.requester, m.need);
  }
  bool operator==(const PoolAcquire&) const = default;
};

struct PoolGrant {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;

  static void fields(auto& m, auto&& f) {
    f(m.server, m.matrix_node, m.game_node);
  }
  bool operator==(const PoolGrant&) const = default;
};

struct PoolDeny {
  static void fields(auto&, auto&& f) { f(); }
  bool operator==(const PoolDeny&) const = default;
};

struct PoolRelease {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;

  static void fields(auto& m, auto&& f) {
    f(m.server, m.matrix_node, m.game_node);
  }
  bool operator==(const PoolRelease&) const = default;
};

// ---------------------------------------------------------------------------
// Admission & overload protection (src/control/)
// ---------------------------------------------------------------------------

/// Game server → client: join refused outright (admission HARD).  The
/// session was never created; `retry_after` is the server's reconnect hint.
struct JoinDeny {
  ClientId client;
  SimTime retry_after{};

  static void fields(auto& m, auto&& f) {
    f(m.client, m.retry_after);
  }
  bool operator==(const JoinDeny&) const = default;
};

/// Game server → client: join not admitted right now (admission SOFT and
/// the token budget is spent).  Unlike JoinDeny this is transient — retry
/// after `retry_after` and the join will likely clear the bucket.
struct JoinDefer {
  ClientId client;
  SimTime retry_after{};

  static void fields(auto& m, auto&& f) {
    f(m.client, m.retry_after);
  }
  bool operator==(const JoinDefer&) const = default;
};

/// Matrix server → its game server: the admission state changed.  `state`
/// carries the numeric AdmissionState (the wire stays independent of
/// control/ headers); `seq` is monotonic so a reordered update can never
/// roll the valve back.
struct AdmissionUpdate {
  std::uint8_t state = 0;
  std::uint64_t seq = 0;

  static void fields(auto& m, auto&& f) {
    f(m.state, m.seq);
  }
  bool operator==(const AdmissionUpdate&) const = default;
};

/// Game server → waiting client: you are parked in the surge queue
/// (src/control/surge_queue.h).  Sent once on enqueue and then on every
/// drain tick, so the client can show a live "waiting room" instead of
/// blind defer-retries.  `position` is the client's 1-based rank in the
/// current drain order (aging can move it), `depth` the whole queue, and
/// `eta` a best-effort estimate of the remaining wait at the current token
/// rate — a hint, not a promise.
struct QueueUpdate {
  ClientId client;
  std::uint32_t position = 0;
  std::uint32_t depth = 0;
  SimTime eta{};

  static void fields(auto& m, auto&& f) {
    f(m.client, m.position, m.depth, m.eta);
  }
  bool operator==(const QueueUpdate&) const = default;
};

/// Resource pool → MC: occupancy changed (grant/release/seed).
struct PoolStatus {
  std::uint32_t idle = 0;
  std::uint32_t total = 0;

  static void fields(auto& m, auto&& f) {
    f(m.idle, m.total);
  }
  bool operator==(const PoolStatus&) const = default;
};

/// Matrix server → MC: per-server load digest feeding coordinator-led
/// global admission (src/control/global_admission.h).  Sent alongside each
/// LoadReport while `Config::admission.global.enabled`; `admission_state`
/// is the server's LOCAL valve state (the MC composes its own floor on
/// top, so echoing the composed state back would latch the loop).
struct LoadDigest {
  ServerId server;
  std::uint32_t client_count = 0;
  std::uint32_t queue_length = 0;
  std::uint32_t waiting_count = 0;  ///< surge-queue depth
  std::uint8_t admission_state = 0; ///< local AdmissionState

  static void fields(auto& m, auto&& f) {
    f(m.server, m.client_count, m.queue_length, m.waiting_count,
      m.admission_state);
  }
  bool operator==(const LoadDigest&) const = default;
};

/// MC → Matrix server (relayed matrix → game): coordinator-led global
/// admission directive.  `floor` is the minimum AdmissionState every server
/// must hold (each server composes it with its local valve — strictest
/// wins); `token_rate` is THIS server's share of the deployment-wide SOFT
/// budget, weighted by waiting-room depth so starved partitions drain
/// first (0 ⇒ use the local config rate).  `active == false` rescinds the
/// directive (global pressure relaxed to NORMAL).  `seq` is monotonic so a
/// reordered directive can never roll the floor back.
struct AdmissionDirective {
  std::uint64_t seq = 0;
  std::uint8_t floor = 0;           ///< numeric AdmissionState
  bool active = false;
  double token_rate = 0.0;          ///< joins/s granted to this server
  double pressure = 0.0;            ///< deployment pressure score (observability)
  std::uint32_t waiting_total = 0;  ///< deployment-wide parked joins

  static void fields(auto& m, auto&& f) {
    f(m.seq, m.floor, m.active, m.token_rate, m.pressure, m.waiting_total);
  }
  bool operator==(const AdmissionDirective&) const = default;
};

/// One parked join handed across servers (split/merge): enough to re-park
/// at the destination preserving priority class and accrued age.
struct QueueHandoffEntry {
  ClientId client;
  NodeId client_node;
  Vec2 position;
  std::uint8_t cls = 0;   ///< original PriorityClass
  SimTime enqueued_at{};  ///< original park time (age keeps accruing)

  static void fields(auto& m, auto&& f) {
    f(m.client, m.client_node, m.position, m.cls, m.enqueued_at);
  }
  bool operator==(const QueueHandoffEntry&) const = default;
};

/// Game server → Matrix (relay) → game server: surge-queue entries whose
/// region moved to `to_game` in a split/reclaim.  The destination re-parks
/// them (class + age preserved) instead of the source flushing them to
/// client-side retry; entries it cannot take fall back to JoinDefer.
struct QueueHandoff {
  ServerId from_server;
  NodeId to_game;
  std::vector<QueueHandoffEntry> entries;

  static void fields(auto& m, auto&& f) {
    f(m.from_server, m.to_game, m.entries);
  }
  bool operator==(const QueueHandoff&) const = default;
};

/// MC → every Matrix server: deployment-wide pool pressure, rebroadcast
/// from PoolStatus.  Feeds the pre-escalation signal: a server nearing
/// overload with an exhausted pool cannot count on a split being granted.
struct PoolPressure {
  std::uint32_t idle = 0;
  std::uint32_t total = 0;

  static void fields(auto& m, auto&& f) {
    f(m.idle, m.total);
  }
  bool operator==(const PoolPressure&) const = default;
};

// ---------------------------------------------------------------------------
// Coordinator fail-over
// ---------------------------------------------------------------------------

/// A (new) Matrix Coordinator announces itself to a Matrix server.  The
/// paper: "the MC can also be made reliable using well understood
/// replication techniques" — and, crucially, the MC holds only *soft*
/// state: every Matrix server knows its own range, so a fresh MC rebuilds
/// the partition map from the re-registrations this message solicits.
/// Routing never stalls during fail-over because overlap tables are local.
struct McAnnounce {
  NodeId mc_node;
  std::uint64_t generation = 0;  ///< monotonically increasing MC incarnation

  static void fields(auto& m, auto&& f) {
    f(m.mc_node, m.generation);
  }
  bool operator==(const McAnnounce&) const = default;
};

/// Periodic coordinator liveness beacon (control-plane failsafe,
/// src/control/control_plane.h).  Broadcast to every registered matrix
/// server at Config::failsafe.heartbeat_interval — and relayed by each
/// matrix server to its game server — ONLY while the failsafe is enabled,
/// so default deployments put no extra bytes on the wire.  `generation`
/// carries the MC epoch (same counter as McAnnounce.generation); `seq`
/// strictly increases within a generation so a delayed beat can never
/// rewind the freshness clock.
struct McHeartbeat {
  NodeId mc_node;
  std::uint64_t generation = 0;
  std::uint64_t seq = 0;

  static void fields(auto& m, auto&& f) {
    f(m.mc_node, m.generation, m.seq);
  }
  bool operator==(const McHeartbeat&) const = default;
};

// ---------------------------------------------------------------------------
// Envelope-level message
// ---------------------------------------------------------------------------
//
// Each struct above describes its wire layout once, in `fields`: its fields
// in wire order, handed to a visitor.  protocol.cpp derives everything else
// from that one description — encoder, decoder, exact encoded size, the
// zero-copy views and the relay's destination prefix — and `operator==`
// compares the same fields.  The list below is the only list of message
// types: it generates the Message variant and message_name, and a message's
// wire type byte is its position in the list + 1 (0 is never a valid type
// byte).  Order is part of the protocol; append only.
//
// Adding a message: declare its struct above; give it `fields` and a
// defaulted operator==; append it to MATRIX_MESSAGE_TYPES.

#define MATRIX_MESSAGE_TYPES(X)                                              \
  X(TaggedPacket) X(ClientHello) X(Welcome) X(ClientAction) X(ServerUpdate)  \
  X(Redirect) X(ClientBye) X(LoadReport) X(MapRange) X(ShedDone)             \
  X(OwnerQuery) X(OwnerReply) X(Adopt) X(PeerLoad) X(ReclaimRequest)         \
  X(ReclaimDecline) X(ReclaimDone) X(StateTransfer) X(ClientStateTransfer)   \
  X(ServerRegister) X(ServerUnregister) X(OverlapTableMsg) X(PointLookup)    \
  X(PointOwner) X(PoolAcquire) X(PoolGrant) X(PoolDeny) X(PoolRelease)       \
  X(McAnnounce) X(JoinDeny) X(JoinDefer) X(AdmissionUpdate) X(PoolStatus)    \
  X(PoolPressure) X(QueueUpdate) X(LoadDigest) X(AdmissionDirective)         \
  X(QueueHandoff) X(McHeartbeat)

namespace detail {
template <typename Unused, typename... Alternatives>
struct MessageVariant {
  using type = std::variant<Alternatives...>;
};

template <typename T, typename... Alternatives>
constexpr std::uint8_t wire_type_of(const std::variant<Alternatives...>*) {
  std::uint8_t type = 1;
  for (const bool same : {std::is_same_v<T, Alternatives>...}) {
    if (same) return type;
    ++type;
  }
  return 0;
}
}  // namespace detail

#define MATRIX_MESSAGE_ALTERNATIVE(T) , T
using Message = detail::MessageVariant<
    void MATRIX_MESSAGE_TYPES(MATRIX_MESSAGE_ALTERNATIVE)>::type;
#undef MATRIX_MESSAGE_ALTERNATIVE
static_assert(std::variant_size_v<Message> < 256, "type byte overflow");

/// Wire type byte of the Message alternative `T`: its variant index + 1.
template <typename T>
inline constexpr std::uint8_t wire_type = [] {
  constexpr std::uint8_t type =
      detail::wire_type_of<T>(static_cast<const Message*>(nullptr));
  static_assert(type != 0, "wire_type: not a Message alternative");
  return type;
}();

/// Serializes `message` (1 type byte + body).
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& message);

/// Serializes into `writer`, reserving the exact encoded size up front.
/// Pair the writer with a recycled buffer (Network::rent_buffer) and
/// steady-state encoding performs no allocation at all.
void encode_message_into(ByteWriter& writer, const Message& message);

/// Serializes a single message body (type byte + body, size-reserved)
/// without ever constructing the Message variant — the typed fast path
/// behind ProtocolNode's and MatrixPort's sends, which otherwise would copy
/// the body (payload included) into a temporary variant per send.
/// Explicitly instantiated in protocol.cpp for every Message alternative.
template <typename Body>
void encode_one_into(ByteWriter& writer, const Body& body);

/// Parses bytes back into a Message; std::nullopt on malformed input.
[[nodiscard]] std::optional<Message> decode_message(
    std::span<const std::uint8_t> bytes);

/// Short human-readable name of the message alternative, for logs/metrics.
[[nodiscard]] const char* message_name(const Message& message);

// ---------------------------------------------------------------------------
// Zero-copy frame views (the engine hot path)
// ---------------------------------------------------------------------------
//
// The frames that dominate steady-state traffic are handled by
// `ProtocolNode::on_frame` overrides from a decode that skips the Message
// variant.  Each parse_*_frame reads its type's one field description, the
// same one decode_message reads, so it accepts exactly the frames
// decode_message accepts for that type and yields the same field values;
// it returns nullopt for any other frame type or a malformed body.  A
// payload-carrying message decodes into its span instantiation, whose
// payload points into the frame instead of being copied.

using ClientActionView = BasicClientAction<std::span<const std::uint8_t>>;
using ServerUpdateView = BasicServerUpdate<std::span<const std::uint8_t>>;

struct TaggedPacketView : BasicTaggedPacket<std::span<const std::uint8_t>> {
  /// Byte offset of the peer_forwarded flag within the frame.  A relay that
  /// forwards the packet flag-flipped copies the frame and writes one byte —
  /// byte-identical to re-encoding the mutated struct.
  std::size_t peer_flag_offset = 0;

  /// Full TaggedPacket (payload copied) for the rare paths that must hold
  /// the packet across events (pending MC lookups).
  [[nodiscard]] TaggedPacket materialize() const;
};

/// The matrix leg of a game→matrix→game relay (StateTransfer,
/// ClientStateTransfer, QueueHandoff) needs exactly one field: where to
/// forward.  The relay re-sends the arriving frame bytes untouched
/// (encode∘decode is the identity, so the raw forward is byte-identical to
/// decode-then-re-encode) and the blob — unbounded during big sheds — is
/// never copied through a decoded struct.
struct RelayFrameView {
  std::uint8_t wire_type = 0;
  NodeId to_game;
};

[[nodiscard]] std::optional<TaggedPacketView> parse_tagged_packet_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<ClientActionView> parse_client_action_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<ServerUpdateView> parse_server_update_frame(
    std::span<const std::uint8_t> frame);
/// LoadReport and QueueUpdate carry no payload: their view is the message.
[[nodiscard]] std::optional<LoadReport> parse_load_report_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<QueueUpdate> parse_queue_update_frame(
    std::span<const std::uint8_t> frame);
/// Reads a relay frame's fields up to `to_game` and nothing after it.
[[nodiscard]] std::optional<RelayFrameView> parse_relay_frame(
    std::span<const std::uint8_t> frame);

}  // namespace matrix
