#include "baseline/replicated_static.h"

#include <cmath>

namespace matrix {

void ReplicaRouter::on_message(const Message& message,
                               const Envelope& envelope) {
  if (const auto* packet = std::get_if<TaggedPacket>(&message)) {
    if (packet->peer_forwarded) {
      // From another router: hand to our game server (already verified at
      // the origin; static topology makes re-verification redundant).
      ++stats_.peer_packets_delivered;
      send(wiring_.game_node, *packet);
      return;
    }
    ++stats_.packets_from_game;
    TaggedPacket copy = *packet;
    copy.peer_forwarded = true;
    // Tight coupling: EVERY sibling replica hears EVERY event — this is
    // the O(M) cost the paper calls out.
    for (NodeId sibling : wiring_.sibling_games) {
      ++stats_.replica_fanout;
      send(sibling, copy);
    }
    // Cross-partition visibility, same as Matrix: overlap-region lookup.
    if (const OverlapRegionWire* region = index_.find(packet->origin)) {
      for (const OverlapPeer& peer : region->peers) {
        ++stats_.neighbour_fanout;
        send(peer.matrix_node, copy);
      }
    }
    return;
  }
  if (const auto* query = std::get_if<OwnerQuery>(&message)) {
    // Static map: answer locally (no coordinator exists here).
    OwnerReply reply;
    reply.client = query->client;
    reply.seq = query->seq;
    if (const PartitionEntry* owner =
            wiring_.static_map.owner_of(query->point)) {
      reply.found = true;
      reply.server = owner->server;
      reply.game_node = owner->game_node;
    }
    send(envelope.src, reply);
    return;
  }
  // LoadReports, ShedDone etc. are ignored: nothing adapts here.
  (void)envelope;
}

namespace {

std::vector<Rect> grid(const Rect& world, std::size_t n) {
  std::vector<Rect> out;
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  std::size_t made = 0;
  const double row_h = world.height() / static_cast<double>(rows);
  for (std::size_t r = 0; r < rows && made < n; ++r) {
    const std::size_t remaining_rows = rows - r;
    const std::size_t in_row =
        std::min(cols, (n - made + remaining_rows - 1) / remaining_rows);
    const double col_w = world.width() / static_cast<double>(in_row);
    for (std::size_t c = 0; c < in_row; ++c) {
      const double x0 = world.x0() + col_w * static_cast<double>(c);
      const double y0 = world.y0() + row_h * static_cast<double>(r);
      out.emplace_back(x0, y0,
                       c + 1 == in_row ? world.x1() : x0 + col_w,
                       r + 1 == rows ? world.y1() : y0 + row_h);
      ++made;
    }
  }
  return out;
}

}  // namespace

ReplicatedDeployment::ReplicatedDeployment(Options options)
    : options_(std::move(options)),
      network_(options_.seed),
      rng_(options_.seed ^ 0x5DEECE66DULL) {
  network_.set_default_link(options_.wan);
  partitions_ = grid(options_.config.world, options_.partitions);
  next_replica_.assign(options_.partitions, 0);

  // One PartitionMap entry per partition; the representative game node is
  // replica 0 (owner queries rotate implicitly as clients re-ask).
  // Router node ids are needed for overlap peers: one router per replica,
  // but cross-partition events only need to reach each partition once per
  // replica — we list ALL replicas' routers as peers (full consistency).
  const std::size_t k = options_.partitions;
  const std::size_t m = options_.replicas;

  // Create all pairs first.
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t r = 0; r < m; ++r) {
      const ServerId sid(p * m + r + 1);
      auto router = std::make_unique<ReplicaRouter>(sid, options_.config);
      auto game =
          std::make_unique<GameServer>(sid, options_.spec, options_.config);
      const NodeId router_node =
          network_.attach(router.get(), options_.router_node);
      network_.attach(game.get(), options_.game_node);
      game->wire(router_node);
      router_ptrs_.push_back(router.get());
      game_ptrs_.push_back(game.get());
      routers_.push_back(std::move(router));
      game_servers_.push_back(std::move(game));
    }
  }

  // LAN between all server-side nodes.
  std::vector<NodeId> infra;
  for (const auto* r : router_ptrs_) infra.push_back(r->node_id());
  for (const auto* g : game_ptrs_) infra.push_back(g->node_id());
  for (std::size_t i = 0; i < infra.size(); ++i) {
    for (std::size_t j = i + 1; j < infra.size(); ++j) {
      network_.set_link_bidirectional(infra[i], infra[j], options_.lan);
    }
  }

  // Static map (one representative per partition).
  PartitionMap static_map;
  for (std::size_t p = 0; p < k; ++p) {
    static_map.upsert({ServerId(p * m + 1),
                       router_ptrs_[p * m]->node_id(),
                       game_ptrs_[p * m]->node_id(), partitions_[p]});
  }

  // Wire each router: siblings, overlap table (peers expanded to every
  // replica of each neighbouring partition), static map, and push the
  // authority range to its game server.
  for (std::size_t p = 0; p < k; ++p) {
    // Overlap regions computed once on the K-partition map.
    const auto base_regions = build_overlap_regions(
        static_map, ServerId(p * m + 1), options_.spec.visibility_radius,
        options_.config.metric);
    // Expand each peer partition into its M replica routers.
    std::vector<OverlapRegionWire> expanded = base_regions;
    for (auto& region : expanded) {
      std::vector<OverlapPeer> replicas;
      for (const OverlapPeer& peer : region.peers) {
        const std::size_t peer_partition = (peer.server.value() - 1) / m;
        for (std::size_t r = 0; r < m; ++r) {
          replicas.push_back({ServerId(peer_partition * m + r + 1),
                              router_ptrs_[peer_partition * m + r]->node_id()});
        }
      }
      region.peers = std::move(replicas);
    }

    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t idx = p * m + r;
      ReplicaRouter::StaticWiring wiring;
      wiring.game_node = game_ptrs_[idx]->node_id();
      wiring.range = partitions_[p];
      for (std::size_t r2 = 0; r2 < m; ++r2) {
        if (r2 != r) {
          wiring.sibling_games.push_back(game_ptrs_[p * m + r2]->node_id());
        }
      }
      wiring.overlap = expanded;
      wiring.static_map = static_map;
      router_ptrs_[idx]->wire_static(std::move(wiring));

      // Hand the game server its (fixed) authority.
      MapRange range;
      range.new_range = partitions_[p];
      network_.send(router_ptrs_[idx]->node_id(),
                    game_ptrs_[idx]->node_id(),
                    encode_message(Message{range}));
    }
  }
  network_.run_until(network_.now() + SimTime::from_ms(50));
}

BotClient* ReplicatedDeployment::add_bot(Vec2 position,
                                         std::optional<Vec2> attraction,
                                         double attraction_spread) {
  std::size_t partition = 0;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    if (partitions_[p].contains(position)) {
      partition = p;
      break;
    }
  }
  const std::size_t replica = next_replica_[partition]++ % options_.replicas;
  GameServer* home = game_ptrs_[partition * options_.replicas + replica];

  auto bot = std::make_unique<BotClient>(client_ids_.next(), options_.spec,
                                         options_.config.world, rng_.fork());
  network_.attach(bot.get());
  bot->set_attraction(attraction, attraction_spread);
  bot->join(home->node_id(), position);
  BotClient* raw = bot.get();
  bot_ptrs_.push_back(raw);
  bots_.push_back(std::move(bot));
  return raw;
}

std::size_t ReplicatedDeployment::total_clients() const {
  std::size_t n = 0;
  for (const GameServer* game : game_ptrs_) n += game->client_count();
  return n;
}

std::uint64_t ReplicatedDeployment::routing_bytes() const {
  std::uint64_t bytes = 0;
  for (const ReplicaRouter* router : router_ptrs_) {
    // Count bytes leaving each router toward games/routers.
    for (const ReplicaRouter* other : router_ptrs_) {
      bytes += network_.stats(router->node_id(), other->node_id()).bytes;
    }
    for (const GameServer* game : game_ptrs_) {
      bytes += network_.stats(router->node_id(), game->node_id()).bytes;
    }
  }
  return bytes;
}

}  // namespace matrix
