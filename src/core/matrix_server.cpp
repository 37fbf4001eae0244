#include "core/matrix_server.h"

#include <algorithm>
#include <sstream>

#include "util/log.h"

namespace matrix {

std::string MatrixServer::name() const {
  std::ostringstream oss;
  oss << "matrix-" << id_.value();
  return oss.str();
}

void MatrixServer::activate_root(const Rect& range,
                                 std::vector<double> radii) {
  active_ = true;
  range_ = range;
  radii_ = radii.empty() ? std::vector<double>{config_.visibility_radius}
                         : std::move(radii);
  parent_ = ServerId{};
  ++activation_epoch_;
  topology_epoch_ = 0;
  clear_pool_denial_episode();
  admission_.reset(now());
  reset_directive();
  start_failsafe(now());
  register_with_mc();
  push_range_to_game(Rect{}, NodeId{}, ServerId{}, /*reclaim=*/false);
}

const OverlapRegionWire* MatrixServer::lookup(Vec2 point,
                                              std::uint8_t rc) const {
  if (rc >= tables_.size()) rc = 0;
  if (rc >= tables_.size()) return nullptr;
  return tables_[rc].find(point);
}

void MatrixServer::on_message(const Message& message, const Envelope&) {
  if (const auto* grant = std::get_if<PoolGrant>(&message)) {
    handle_pool_grant(*grant);
  } else if (std::holds_alternative<PoolDeny>(message)) {
    ++stats_.split_denied_no_server;
    split_pending_ = false;
    network()->tracer().record(now(), obs::TraceKind::kPoolDenied,
                               id_.value());
    network()->tracer().close_span(now(), obs::SpanKind::kSplit, id_.value(),
                                   /*success=*/false);
    // Exponential backoff before asking the pool again (doubling per
    // consecutive denial, capped): the episode semantics live in the policy
    // layer (policy/denial_episode.h), this server just applies the wait.
    cooldown_until_ = now() + denial_episode_.on_denied();
    stats_.split_denied_streak = denial_episode_.streak();
    stats_.pool_backoff_us = denial_episode_.backoff_us();
    // A denied split is also an admission signal: the pool is exhausted
    // and this server is still hot.
    observe_admission(last_report_.client_count, last_report_.queue_length,
                      last_report_.waiting_count);
  } else if (const auto* pressure = std::get_if<PoolPressure>(&message)) {
    // While the failsafe is degraded the pool view stays FROZEN: a pressure
    // broadcast that limped in from a possibly-dead MC must not steer the
    // valve.  (Failsafe off ⇒ always applied, the historical behaviour.)
    if (control_plane_.admit(now(), {ControlKind::kPoolPressure, 0, 0}) ==
        ControlVerdict::kApply) {
      pool_idle_fraction_ =
          pressure->total > 0 ? static_cast<double>(pressure->idle) /
                                    static_cast<double>(pressure->total)
                              : -1.0;
      // A spare is idle again: the doubled wait describes a pool that no
      // longer exists, so allow a prompt retry — but keep the streak.  The
      // pool broadcasts occupancy on every change (including grants to other
      // servers that leave idle > 0); if the freed spare is snatched before
      // our retry lands, the next denial must keep doubling from where the
      // episode left off.  Only a calm report or a grant ends the episode
      // (policy/denial_episode.h; regression-pinned in policy_test.cpp).
      if (pressure->idle > 0 && denial_episode_.idle_allows_prompt_retry()) {
        cooldown_until_ =
            std::min(cooldown_until_, now() + config_.topology_cooldown);
      }
    }
    if (active_) {
      observe_admission(last_report_.client_count, last_report_.queue_length,
                        last_report_.waiting_count);
    }
  } else if (const auto* directive = std::get_if<AdmissionDirective>(&message)) {
    handle_admission_directive(*directive);
  } else if (const auto* beat = std::get_if<McHeartbeat>(&message)) {
    handle_mc_heartbeat(*beat);
  } else if (const auto* adopt = std::get_if<Adopt>(&message)) {
    handle_adopt(*adopt);
  } else if (const auto* table = std::get_if<OverlapTableMsg>(&message)) {
    handle_overlap_table(*table);
  } else if (const auto* load = std::get_if<PeerLoad>(&message)) {
    handle_peer_load(*load);
  } else if (const auto* request = std::get_if<ReclaimRequest>(&message)) {
    handle_reclaim_request(*request);
  } else if (const auto* decline = std::get_if<ReclaimDecline>(&message)) {
    handle_reclaim_decline(*decline);
  } else if (const auto* done = std::get_if<ReclaimDone>(&message)) {
    handle_reclaim_done(*done);
  } else if (const auto* shed = std::get_if<ShedDone>(&message)) {
    handle_shed_done(*shed);
  } else if (const auto* owner = std::get_if<PointOwner>(&message)) {
    handle_point_owner(*owner);
  } else if (const auto* query = std::get_if<OwnerQuery>(&message)) {
    // Game server asks who owns a point (client migration).  Resolve via
    // the MC; the reply comes back through handle_point_owner.
    ++stats_.nonproximal_lookups;
    const std::uint32_t seq = next_lookup_seq_++;
    pending_owner_queries_[seq] = *query;
    send(wiring_.mc_node, PointLookup{query->point, seq});
  } else if (const auto* announce = std::get_if<McAnnounce>(&message)) {
    // Coordinator fail-over: adopt the new MC and re-register so it can
    // rebuild the partition map from our (authoritative) local range.  The
    // control plane rejects a superseded generation and — on a newer one —
    // flips the epoch atomically: every per-kind seq counter resets in the
    // same admit() call, so no directive numbered by the dead MC can ever
    // outrank its successor's.
    if (control_plane_.admit(now(),
                             {ControlKind::kAnnounce, announce->generation,
                              0}) != ControlVerdict::kApply) {
      return;  // stale announce
    }
    wiring_.mc_node = announce->mc_node;
    pending_lookups_.clear();         // in-flight lookups died with the MC
    pending_owner_queries_.clear();
    // The old MC's directive died with it: drop the floor (the standby
    // re-clamps within a digest round if pressure persists); its successor
    // numbers directives from 1 in the new epoch.
    const AdmissionState before = effective_admission_state();
    reset_directive();
    if (active_ && config_.admission.enabled &&
        effective_admission_state() != before) {
      push_admission_to_game();
    }
    if (active_) register_with_mc();
  }
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

bool MatrixServer::on_frame(const Envelope& env) {
  if (env.payload.empty()) return false;
  switch (env.payload[0]) {
    case wire_type<TaggedPacket>: {
      const auto view = parse_tagged_packet_frame(env.payload);
      if (!view) return false;  // malformed: the generic path counts it
      route_tagged_frame(*view, env);
      return true;
    }
    case wire_type<LoadReport>: {
      // Per-interval report from every game server: all fixed-width fields,
      // so skip the Message variant on the floor's steadiest control stream.
      const auto report = parse_load_report_frame(env.payload);
      if (!report) return false;
      handle_load_report(*report);
      return true;
    }
    case wire_type<StateTransfer>:
    case wire_type<ClientStateTransfer>:
    case wire_type<QueueHandoff>: {
      // Relay legs (paper §3.2.2: state is forwarded "via Matrix", and
      // parked surge-queue joins re-park at the server that now owns their
      // region): only the destination field is read; the frame — shed blobs
      // included — is forwarded verbatim, never decoded or copied through a
      // struct.
      const auto relay = parse_relay_frame(env.payload);
      if (!relay) return false;
      send_raw(relay->to_game, env.payload);
      return true;
    }
    default:
      return false;
  }
}

std::size_t MatrixServer::send_peer_frame(NodeId peer,
                                          const std::vector<std::uint8_t>& frame,
                                          std::size_t flag_offset) {
  std::vector<std::uint8_t> buf = network()->rent_buffer();
  buf.assign(frame.begin(), frame.end());
  buf[flag_offset] = 1;  // peer_forwarded = true, flipped in place
  return network()->send(node_id(), peer, std::move(buf));
}

void MatrixServer::route_tagged_frame(const TaggedPacketView& view,
                                      const Envelope& env) {
  if (!active_) return;

  if (view.peer_forwarded) {
    // Arrived from a peer Matrix server: verify the packet's range before
    // handing it to our game server (paper §3.2.3).
    ++stats_.peer_packets_received;
    const double radius =
        view.radius_class < radii_.size() ? radii_[view.radius_class]
                                          : radii_.front();
    const bool origin_relevant =
        metric_distance(config_.metric, view.origin, range_) <= radius;
    const bool target_relevant =
        view.target.has_value() && range_.contains(*view.target);
    if (origin_relevant || target_relevant) {
      ++stats_.peer_packets_delivered;
      // Deliver the frame as received: the packet is forwarded unchanged,
      // so the arriving bytes are exactly what re-encoding would produce.
      send_raw(wiring_.game_node, env.payload);
    } else {
      ++stats_.peer_packets_rejected;
    }
    return;
  }

  // Arrived from our own game server: fan out along the consistency set.
  ++stats_.packets_from_game;

  if (!range_.contains(view.origin)) {
    // Handoff-window stray: the client's new home will route it properly.
    // Hand it to the point's owner via the MC (non-proximal machinery).
    ++stats_.origin_outside_range;
    ++stats_.nonproximal_lookups;
    const std::uint32_t seq = next_lookup_seq_++;
    TaggedPacket forwarded = view.materialize();
    forwarded.peer_forwarded = true;
    forwarded.target = view.origin;  // ensure delivery at the owner
    pending_lookups_[seq] = std::move(forwarded);
    send(wiring_.mc_node, PointLookup{view.origin, seq});
    return;
  }

  if (const OverlapRegionWire* region =
          lookup(view.origin, view.radius_class)) {
    for (const OverlapPeer& peer : region->peers) {
      ++stats_.packets_fanned_out;
      send_peer_frame(peer.matrix_node, env.payload, view.peer_flag_offset);
    }
  }

  // Non-proximal interaction (paper §3.2.4): the target lies beyond our
  // partition; ask the MC who owns it, then forward directly.
  if (view.target.has_value() && !range_.contains(*view.target)) {
    const double radius =
        view.radius_class < radii_.size() ? radii_[view.radius_class]
                                          : radii_.front();
    // Targets within the origin's visibility radius were already covered by
    // the origin fan-out above.
    if (metric_distance(config_.metric, *view.target, view.origin) > radius) {
      ++stats_.nonproximal_lookups;
      const std::uint32_t seq = next_lookup_seq_++;
      TaggedPacket forwarded = view.materialize();
      forwarded.peer_forwarded = true;
      pending_lookups_[seq] = std::move(forwarded);
      send(wiring_.mc_node, PointLookup{*view.target, seq});
    }
  }
}

void MatrixServer::handle_point_owner(const PointOwner& owner) {
  if (auto qit = pending_owner_queries_.find(owner.lookup_seq);
      qit != pending_owner_queries_.end()) {
    const OwnerQuery query = qit->second;
    pending_owner_queries_.erase(qit);
    OwnerReply reply;
    reply.client = query.client;
    reply.seq = query.seq;
    reply.found = owner.found;
    reply.server = owner.server;
    reply.game_node = owner.game_node;
    send(wiring_.game_node, reply);
    return;
  }
  auto it = pending_lookups_.find(owner.lookup_seq);
  if (it == pending_lookups_.end()) return;
  TaggedPacket packet = std::move(it->second);
  pending_lookups_.erase(it);
  if (owner.found && owner.matrix_node != node_id()) {
    send(owner.matrix_node, packet);
  } else if (owner.found) {
    // We own the point ourselves (lookup raced a topology change).
    send(wiring_.game_node, packet);
  }
}

// ---------------------------------------------------------------------------
// Load monitoring and splits (paper §3.2.3)
// ---------------------------------------------------------------------------

void MatrixServer::handle_load_report(const LoadReport& report) {
  if (!active_) return;
  last_report_ = report;
  stats_.surge_waiting = report.waiting_count;
  stats_.surge_waiting_peak =
      std::max(stats_.surge_waiting_peak, report.waiting_count);

  // Global admission (src/control/global_admission.h): mirror the report
  // to the MC as a LoadDigest — carrying the LOCAL valve state, so the
  // coordinator's floor never feeds back into its own pressure score.
  if (config_.admission.global.enabled) {
    LoadDigest digest;
    digest.server = id_;
    digest.client_count = report.client_count;
    digest.queue_length = report.queue_length;
    digest.waiting_count = report.waiting_count;
    digest.admission_state = static_cast<std::uint8_t>(admission_.state());
    send(wiring_.mc_node, digest);
    ++stats_.digests_sent;
  }

  // Lost-message recovery: re-send a long-outstanding reclaim request.
  // Idempotent at the child (already-shedding children ignore duplicates;
  // re-granted children see a stale token and decline).
  if (reclaim_pending_ && now() >= reclaim_retry_at_ && !children_.empty()) {
    reclaim_retry_at_ = now() + config_.topology_cooldown * 2;
    send(children_.back().matrix_node,
         ReclaimRequest{children_.back().adoption_token});
  }

  // "explicit load messages from the game server or via system performance
  // measurements": combine the reported queue with what we can observe.
  const auto observed_queue = static_cast<std::uint32_t>(
      network()->queue_length(wiring_.game_node));
  const std::uint32_t queue_len = std::max(report.queue_length, observed_queue);

  const bool overloaded = config_.overloaded(report.client_count, queue_len);

  // A calm report ends the pool-denial episode: the streak and its backoff
  // describe the *current* run of denied splits, and with the overload gone
  // no further PoolAcquire (and hence no clearing PoolGrant) would ever be
  // sent — without this, one denial would latch the admission valve and
  // block reclaim forever.
  if (!overloaded) clear_pool_denial_episode();

  observe_admission(report.client_count, queue_len, report.waiting_count);

  if (overloaded) {
    ++consecutive_overload_;
  } else {
    consecutive_overload_ = 0;
  }
  // The policy layer decides: maybe_split consults it on EVERY report (a
  // DirectivePolicy may split proactively below the overload threshold;
  // ClassicPolicy only fires on sustained overload), reclaim only on calm
  // reports, exactly as before.
  maybe_split();
  if (!overloaded) maybe_reclaim();
}

// ---------------------------------------------------------------------------
// Admission control (src/control/)
// ---------------------------------------------------------------------------

void MatrixServer::observe_admission(std::uint32_t clients,
                                     std::uint32_t queue_len,
                                     std::uint32_t waiting_count) {
  if (!config_.admission.enabled) return;
  AdmissionSignals signals;
  signals.load.client_count = clients;
  // Always fold in the directly observed receive queue: callers outside
  // the LoadReport path (PoolDeny, PoolPressure) would otherwise escalate
  // on a queue figure up to one report interval stale.
  signals.load.queue_length = std::max(
      queue_len, static_cast<std::uint32_t>(
                     network()->queue_length(wiring_.game_node)));
  signals.load.waiting_count = waiting_count;
  signals.split_denied_streak = denial_episode_.streak();
  signals.pool_idle_fraction = pool_idle_fraction_;
  if (admission_.observe(now(), signals)) push_admission_to_game();
}

void MatrixServer::handle_admission_directive(
    const AdmissionDirective& directive) {
  if (!config_.admission.enabled || !config_.admission.global.enabled) return;
  // One staleness rule, one place: reordered/stale seqs (and, with the
  // failsafe degraded, anything from an untrusted MC) die here.
  if (control_plane_.admit(now(), {ControlKind::kDirective, 0,
                                   directive.seq}) != ControlVerdict::kApply) {
    return;
  }
  apply_admission_directive(directive);
  if (config_.fault.stale_directive_replay &&
      control_plane_.admit(now(), {ControlKind::kDirective, 0,
                                   directive.seq}) == ControlVerdict::kApply) {
    // Planted bug (docs/TESTING.md): the same directive acts twice.
    apply_admission_directive(directive);
  }
}

void MatrixServer::apply_admission_directive(
    const AdmissionDirective& directive) {
  const AdmissionState before = effective_admission_state();
  directive_active_ = directive.active;
  directive_floor_ = directive.active
                         ? admission_state_from_wire(directive.floor)
                         : AdmissionState::kNormal;
  directive_pressure_ = directive.active ? directive.pressure : 0.0;
  directive_waiting_total_ = directive.active ? directive.waiting_total : 0;
  ++stats_.directives_received;
  if (!active_) return;  // parked in the pool: remember seq, enforce nothing
  // The game server needs the directive itself (token-budget share,
  // active flag for queue handoff), not just the composed state.  Relayed
  // under OUR monotonic seq: the MC's numbering restarts on fail-over,
  // the pair's must not.
  AdmissionDirective relayed = directive;
  relayed.seq = ++game_directive_seq_;
  send(wiring_.game_node, relayed);
  if (effective_admission_state() != before) push_admission_to_game();
}

void MatrixServer::reset_directive() {
  const bool was_active = directive_active_;
  directive_floor_ = AdmissionState::kNormal;
  directive_active_ = false;
  directive_pressure_ = 0.0;
  directive_waiting_total_ = 0;
  // The game server of this pair latched the old directive; rescind it so
  // a fresh life (re-adoption, MC fail-over) starts unclamped.
  if (was_active && config_.admission.global.enabled) {
    AdmissionDirective rescind;
    rescind.seq = ++game_directive_seq_;
    rescind.active = false;
    send(wiring_.game_node, rescind);
  }
}

// ---------------------------------------------------------------------------
// Control-plane failsafe (src/control/control_plane.h)
// ---------------------------------------------------------------------------

void MatrixServer::handle_mc_heartbeat(const McHeartbeat& beat) {
  if (!config_.failsafe.enabled) return;
  if (control_plane_.admit(now(), {ControlKind::kHeartbeat, beat.generation,
                                   beat.seq}) != ControlVerdict::kApply) {
    return;
  }
  if (!active_) return;
  // Relay the beat to our game server: the pair shares one freshness clock,
  // so the game's own failsafe machine degrades (and recovers) in step.
  send(wiring_.game_node, beat);
  ++stats_.heartbeats_relayed;
}

void MatrixServer::on_shard_migrated() {
  control_plane_.bind(&network()->tracer_for(node_id()), node_id().value());
}

void MatrixServer::start_failsafe(SimTime at) {
  control_plane_.bind(&network()->tracer_for(node_id()), node_id().value());
  if (!config_.failsafe.enabled) return;
  control_plane_.start(at);
  schedule_failsafe_tick();
}

void MatrixServer::schedule_failsafe_tick() {
  const std::uint64_t epoch = activation_epoch_;
  network()->events_for(node_id()).schedule_after(
      config_.failsafe.check_interval, [this, epoch] {
        if (!active_ || activation_epoch_ != epoch) return;
        const bool was_fallback = control_plane_.fallback();
        if (control_plane_.tick(now()) && !was_fallback &&
            control_plane_.fallback()) {
          on_failsafe_degraded();
        }
        schedule_failsafe_tick();
      });
}

void MatrixServer::on_failsafe_degraded() {
  // FALLBACK entry: deterministic local-only behaviour.  The frozen
  // directive is dropped — reset_directive() also relays a rescind so the
  // game server restores its local token rate — and the local valve takes
  // back over.  Split/reclaim conservatism is enforced in maybe_split /
  // maybe_reclaim.
  const AdmissionState before = effective_admission_state();
  reset_directive();
  if (active_ && config_.admission.enabled &&
      effective_admission_state() != before) {
    push_admission_to_game();
  }
  MATRIX_INFO("matrix", name() << " failsafe -> FALLBACK (MC silent)");
}

void MatrixServer::clear_pool_denial_episode() {
  if (denial_episode_.end()) {
    // A doubled backoff may still be holding the topology cooldown far in
    // the future; with the episode over, shrink it to the ordinary
    // cooldown so an underloaded server can reclaim (and a re-overloaded
    // one re-ask a refilled pool) promptly.  min() preserves any cooldown
    // a split/reclaim set through the normal hysteresis path.
    cooldown_until_ =
        std::min(cooldown_until_, now() + config_.topology_cooldown);
  }
  stats_.split_denied_streak = 0;
  stats_.pool_backoff_us = 0;
}

void MatrixServer::push_admission_to_game() {
  // The game server enforces the COMPOSED state: local valve and the
  // coordinator's directive floor, strictest wins.
  const AdmissionState effective = effective_admission_state();
  AdmissionUpdate update;
  update.state = static_cast<std::uint8_t>(effective);
  update.seq = ++admission_seq_;
  send(wiring_.game_node, update);
  ++stats_.admission_updates;
  network()->tracer().record(now(), obs::TraceKind::kAdmissionTransition,
                             id_.value(), 0,
                             static_cast<std::int64_t>(effective));
  MATRIX_INFO("matrix", name() << " admission -> "
                               << admission_state_name(effective));
}

bool MatrixServer::can_change_topology() const {
  return active_ && !split_pending_ && !reclaim_pending_ &&
         !being_reclaimed_ && now() >= cooldown_until_;
}

LoadView MatrixServer::build_load_view() const {
  LoadView view;
  view.load.client_count = last_report_.client_count;
  view.load.queue_length = last_report_.queue_length;
  view.load.waiting_count = last_report_.waiting_count;
  view.median_position = last_report_.median_position;
  view.range = range_;
  view.consecutive_overload = consecutive_overload_;
  view.split_denied_streak = denial_episode_.streak();
  view.pool_idle_fraction = pool_idle_fraction_;
  view.local_valve = static_cast<std::uint8_t>(admission_.state());
  view.directive_floor = static_cast<std::uint8_t>(directive_floor_);
  view.effective_valve =
      static_cast<std::uint8_t>(effective_admission_state());
  view.directive_active = directive_active_;
  view.directive_pressure = directive_pressure_;
  view.directive_waiting_total = directive_waiting_total_;
  view.failsafe = static_cast<std::uint8_t>(control_plane_.state());
  return view;
}

void MatrixServer::maybe_split() {
  if (!can_change_topology()) return;
  // FALLBACK forbids decisions that need a pool grant: a split's child must
  // register with the MC to become routable, and the MC is presumed dead.
  if (control_plane_.fallback()) return;
  const LoadView view = build_load_view();
  const SplitDecision decision = policy_->decide_split(view);
  if (!decision.split) return;
  split_pending_ = true;
  split_started_at_ = now();
  ++stats_.splits_initiated;
  if (decision.proactive) ++stats_.proactive_splits;
  // The need hint rides the request so the pool can arbitrate a contested
  // spare toward the most starved partition (0 ⇒ classic FCFS).
  const auto need = policy_->pool_need(view);
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kSplitRequested, id_.value(), 0,
                decision.proactive ? 1 : 0, need);
  tracer.open_span(now(), obs::SpanKind::kSplit, id_.value());
  send(wiring_.pool_node, PoolAcquire{id_, need});
}

void MatrixServer::handle_pool_grant(const PoolGrant& grant) {
  if (!split_pending_ || !active_ || being_reclaimed_) {
    // We no longer want the server — most importantly when our parent's
    // ReclaimRequest overtook the grant: splitting now would change our
    // range mid-reclaim and the parent would merge a stale rectangle,
    // tearing the tiling invariant.  Return the grant.
    send(wiring_.pool_node,
         PoolRelease{grant.server, grant.matrix_node, grant.game_node});
    split_pending_ = false;
    network()->tracer().close_span(now(), obs::SpanKind::kSplit, id_.value(),
                                   /*success=*/false);
    return;
  }

  // The pool came through: clear the denial streak and its backoff.
  clear_pool_denial_episode();
  network()->tracer().record(now(), obs::TraceKind::kPoolGranted, id_.value(),
                             grant.server.value());

  const auto [give_away, keep] = policy_->split_ranges(build_load_view());
  ++topology_epoch_;
  range_ = keep;

  children_.push_back({grant.server, grant.matrix_node, grant.game_node,
                       give_away, topology_epoch_});

  MATRIX_INFO("matrix", name() << " splits: keeps " << keep << ", hands "
                               << give_away << " to S" << grant.server.value());

  Adopt adopt;
  adopt.parent = id_;
  adopt.parent_matrix = node_id();
  adopt.parent_game = wiring_.game_node;
  adopt.range = give_away;
  adopt.visibility_radius = radii_.front();
  adopt.extra_radii.assign(radii_.begin() + 1, radii_.end());
  adopt.content_keys = content_keys_;
  adopt.topology_epoch = topology_epoch_;
  send(grant.matrix_node, adopt);

  register_with_mc();
  push_range_to_game(give_away, grant.game_node, grant.server,
                     /*reclaim=*/false);
}

void MatrixServer::handle_adopt(const Adopt& adopt) {
  active_ = true;
  being_reclaimed_ = false;
  split_pending_ = false;
  reclaim_pending_ = false;
  consecutive_overload_ = 0;
  children_.clear();
  tables_.clear();
  table_versions_.clear();
  range_ = adopt.range;
  parent_ = adopt.parent;
  parent_matrix_ = adopt.parent_matrix;
  parent_game_ = adopt.parent_game;
  radii_.clear();
  radii_.push_back(adopt.visibility_radius);
  radii_.insert(radii_.end(), adopt.extra_radii.begin(),
                adopt.extra_radii.end());
  content_keys_ = adopt.content_keys;
  topology_epoch_ = adopt.topology_epoch;
  // A fresh child should not immediately split/reclaim; give the handoff a
  // cooldown to settle.
  cooldown_until_ = now() + config_.topology_cooldown;
  ++activation_epoch_;
  // A re-granted pool server starts a fresh admission life (and tells its
  // game server so: the pair may have parted in SOFT/HARD last time).
  // The MC re-sends any directive in force on the registration below.
  clear_pool_denial_episode();
  reset_directive();
  if (config_.admission.enabled) {
    admission_.reset(now());
    push_admission_to_game();
  }
  network()->tracer().record(now(), obs::TraceKind::kAdopted, id_.value(),
                             parent_.value());

  MATRIX_INFO("matrix", name() << " adopted range " << range_ << " from S"
                               << parent_.value());

  start_failsafe(now());
  register_with_mc();
  push_range_to_game(Rect{}, NodeId{}, ServerId{}, /*reclaim=*/false);
  schedule_heartbeat();
}

void MatrixServer::schedule_heartbeat() {
  const std::uint64_t epoch = activation_epoch_;
  network()->events_for(node_id()).schedule_after(config_.peer_load_interval, [this, epoch] {
    if (!active_ || activation_epoch_ != epoch || !parent_.valid()) return;
    PeerLoad load;
    load.server = id_;
    load.client_count = last_report_.client_count;
    load.child_count = static_cast<std::uint32_t>(children_.size());
    send(parent_matrix_, load);
    schedule_heartbeat();
  });
}

void MatrixServer::handle_peer_load(const PeerLoad& load) {
  for (auto& child : children_) {
    if (child.server == load.server) {
      child.last_clients = load.client_count;
      child.last_children = load.child_count;
      child.load_known = true;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Reclamation (paper §3.2.3)
// ---------------------------------------------------------------------------

void MatrixServer::maybe_reclaim() {
  if (!can_change_topology()) return;
  if (children_.empty()) return;
  // Only the most recent child can be reclaimed: its range is the complement
  // of our latest split, so the merge below is exact.  Earlier children
  // become reclaimable as later ones are absorbed (LIFO collapse).
  const ChildInfo& child = children_.back();
  ChildView child_view;
  child_view.client_count = child.last_clients;
  child_view.child_count = child.last_children;
  child_view.load_known = child.load_known;
  // FALLBACK reclaims conservatively: only a provably EMPTY child is merged
  // back.  A populated merge mid-outage would concentrate load with no MC
  // to re-split it across the deployment afterwards.
  if (control_plane_.fallback() &&
      (!child.load_known || child.last_clients != 0 ||
       child.last_children != 0)) {
    return;
  }
  if (!policy_->decide_reclaim(build_load_view(), child_view).reclaim) return;
  reclaim_pending_ = true;
  reclaim_started_at_ = now();
  reclaim_retry_at_ = now() + config_.topology_cooldown * 2;
  ++stats_.reclaims_initiated;
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kReclaimRequested, id_.value(),
                child.server.value());
  tracer.open_span(now(), obs::SpanKind::kReclaim, id_.value());
  MATRIX_INFO("matrix", name() << " reclaiming child S"
                               << child.server.value());
  send(child.matrix_node, ReclaimRequest{child.adoption_token});
}

void MatrixServer::handle_reclaim_request(const ReclaimRequest& request) {
  if (!active_) return;
  if (being_reclaimed_) return;  // duplicate/retry while already shedding
  // Refuse unless fully quiescent.  A reclaim racing our own in-flight
  // split or reclaim would hand the parent a rectangle that is no longer
  // the complement of its range — merging it would gap or overlap the map.
  // A stale token means we were re-granted since that request was formed.
  if (split_pending_ || reclaim_pending_ ||
      request.topology_epoch != topology_epoch_) {
    send(parent_matrix_, ReclaimDecline{id_, request.topology_epoch});
    return;
  }
  being_reclaimed_ = true;
  // Shed everything we own to the parent's game server; ShedDone completes
  // the handback.
  push_range_to_game(range_, parent_game_, parent_, /*reclaim=*/true);
}

void MatrixServer::handle_reclaim_decline(const ReclaimDecline& decline) {
  if (!reclaim_pending_) return;
  if (children_.empty() || children_.back().server != decline.child) return;
  reclaim_pending_ = false;
  network()->tracer().record(now(), obs::TraceKind::kReclaimDeclined,
                             id_.value(), decline.child.value());
  network()->tracer().close_span(now(), obs::SpanKind::kReclaim, id_.value(),
                                 /*success=*/false);
  // Brief cooldown before considering the child again.
  cooldown_until_ = now() + config_.topology_cooldown;
}

void MatrixServer::handle_reclaim_done(const ReclaimDone& done) {
  if (!reclaim_pending_) return;
  auto it = std::find_if(children_.begin(), children_.end(),
                         [&](const ChildInfo& c) { return c.server == done.child; });
  if (it == children_.end()) return;
  range_ = Rect::bounding(range_, done.range);
  children_.erase(it);
  reclaim_pending_ = false;
  cooldown_until_ = now() + config_.topology_cooldown;
  ++stats_.reclaims_completed;
  stats_.reclaim_latency_us_sum +=
      static_cast<std::uint64_t>((now() - reclaim_started_at_).us());
  network()->tracer().record(now(), obs::TraceKind::kReclaimCompleted,
                             id_.value(), done.child.value());
  network()->tracer().close_span(now(), obs::SpanKind::kReclaim, id_.value());
  MATRIX_INFO("matrix", name() << " reclaimed range, now " << range_);
  register_with_mc();
  push_range_to_game(Rect{}, NodeId{}, ServerId{}, /*reclaim=*/false);
}

void MatrixServer::handle_shed_done(const ShedDone& done) {
  if (being_reclaimed_) {
    // Child side: everything is handed back; return ourselves to the pool.
    ReclaimDone reclaim_done;
    reclaim_done.child = id_;
    reclaim_done.range = range_;
    reclaim_done.topology_epoch = done.topology_epoch;
    send(parent_matrix_, reclaim_done);
    send(wiring_.mc_node, ServerUnregister{id_});
    send(wiring_.pool_node, PoolRelease{id_, node_id(), wiring_.game_node});
    deactivate();
    return;
  }
  if (split_pending_) {
    // Parent side: the shed that completes a split has finished.
    split_pending_ = false;
    consecutive_overload_ = 0;
    cooldown_until_ = now() + config_.topology_cooldown;
    ++stats_.splits_completed;
    stats_.split_latency_us_sum +=
        static_cast<std::uint64_t>((now() - split_started_at_).us());
    obs::Tracer& tracer = network()->tracer();
    tracer.record(now(), obs::TraceKind::kSplitCompleted, id_.value(),
                  children_.empty() ? 0 : children_.back().server.value());
    tracer.close_span(now(), obs::SpanKind::kSplit, id_.value());
  }
}

void MatrixServer::deactivate() {
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kDeactivated, id_.value());
  // A deactivating server abandons any split/reclaim in flight.
  tracer.close_span(now(), obs::SpanKind::kSplit, id_.value(),
                    /*success=*/false);
  tracer.close_span(now(), obs::SpanKind::kReclaim, id_.value(),
                    /*success=*/false);
  active_ = false;
  being_reclaimed_ = false;
  split_pending_ = false;
  reclaim_pending_ = false;
  consecutive_overload_ = 0;
  range_ = Rect{};
  parent_ = ServerId{};
  children_.clear();
  tables_.clear();
  table_versions_.clear();
  pending_lookups_.clear();
  last_report_ = LoadReport{};
  clear_pool_denial_episode();
  admission_.reset(now());
  reset_directive();
  ++activation_epoch_;
}

// ---------------------------------------------------------------------------
// Control plumbing
// ---------------------------------------------------------------------------

void MatrixServer::handle_overlap_table(const OverlapTableMsg& table) {
  if (!active_ || table.server != id_) return;
  const std::size_t rc = table.radius_class;
  if (tables_.size() <= rc) {
    tables_.resize(rc + 1);
    table_versions_.resize(rc + 1, 0);
  }
  if (table.version < table_versions_[rc]) return;  // stale push
  table_versions_[rc] = table.version;
  tables_[rc] = RegionIndex(table.partition, table.regions);
  ++stats_.table_updates;
}

void MatrixServer::register_with_mc() {
  ServerRegister reg;
  reg.server = id_;
  reg.matrix_node = node_id();
  reg.game_node = wiring_.game_node;
  reg.range = range_;
  reg.radii = radii_;
  send(wiring_.mc_node, reg);
}

void MatrixServer::push_range_to_game(const Rect& shed_range,
                                      NodeId shed_to_game,
                                      ServerId shed_to_server, bool reclaim) {
  MapRange msg;
  msg.new_range = reclaim ? Rect{} : range_;
  msg.shed_range = shed_range;
  msg.shed_to_game = shed_to_game;
  msg.shed_to_server = shed_to_server;
  msg.reclaim = reclaim;
  msg.topology_epoch = topology_epoch_;
  send(wiring_.game_node, msg);
}

}  // namespace matrix
