// Wire-protocol tests (core/protocol.h): one randomized round-trip PROPERTY
// over every Message alternative (replacing the old hand-written
// per-message cases), decoder robustness against malformed input, and the
// ServerSet consistency-set container.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <string>
#include <variant>

#include "core/protocol.h"
#include "core/server_set.h"
#include "util/rng.h"

namespace matrix {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// ServerSet
// ---------------------------------------------------------------------------

TEST(ServerSetTest, InsertKeepsSortedUnique) {
  ServerSet set;
  set.insert(ServerId(3));
  set.insert(ServerId(1));
  set.insert(ServerId(3));
  set.insert(ServerId(2));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.ids(),
            (std::vector<ServerId>{ServerId(1), ServerId(2), ServerId(3)}));
}

TEST(ServerSetTest, ContainsAndErase) {
  ServerSet set{ServerId(5), ServerId(9)};
  EXPECT_TRUE(set.contains(ServerId(5)));
  EXPECT_FALSE(set.contains(ServerId(6)));
  set.erase(ServerId(5));
  EXPECT_FALSE(set.contains(ServerId(5)));
  set.erase(ServerId(5));  // double-erase is a no-op
  EXPECT_EQ(set.size(), 1u);
}

TEST(ServerSetTest, MergeIsUnion) {
  ServerSet a{ServerId(1), ServerId(3)};
  const ServerSet b{ServerId(2), ServerId(3), ServerId(4)};
  a.merge(b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.contains(ServerId(2)));
}

TEST(ServerSetTest, Intersect) {
  const ServerSet a{ServerId(1), ServerId(2), ServerId(3)};
  const ServerSet b{ServerId(2), ServerId(3), ServerId(4)};
  const ServerSet c = a.intersect(b);
  EXPECT_EQ(c, (ServerSet{ServerId(2), ServerId(3)}));
}

TEST(ServerSetTest, EqualityIsOrderIndependent) {
  ServerSet a, b;
  a.insert(ServerId(1));
  a.insert(ServerId(2));
  b.insert(ServerId(2));
  b.insert(ServerId(1));
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Randomized round-trip property over EVERY Message alternative
// ---------------------------------------------------------------------------
//
// For any message m with randomized fields:
//   * decode(encode(m)) succeeds and equals m field for field (so a field
//     left out of a `fields` description — dropped from encoder and decoder
//     alike — is caught, because the generator below sets it anyway);
//   * re-encoding the decoded message reproduces the original bytes
//     byte-for-byte;
//   * message_name covers the alternative.
//
// random_message is written by hand, field by field, independently of the
// `fields` descriptions it checks.  Adding a NEW message breaks the
// static_assert below until the generator covers it.

static_assert(std::variant_size_v<Message> == 39,
              "New Message alternative: extend random_message() below");

Vec2 rnd_vec(Rng& rng) {
  return {rng.next_double_in(-1000.0, 1000.0),
          rng.next_double_in(-1000.0, 1000.0)};
}

Rect rnd_rect(Rng& rng) {
  const double x0 = rng.next_double_in(-500.0, 500.0);
  const double y0 = rng.next_double_in(-500.0, 500.0);
  return Rect(x0, y0, x0 + rng.next_double_in(0.0, 800.0),
              y0 + rng.next_double_in(0.0, 800.0));
}

SimTime rnd_time(Rng& rng) {
  return SimTime::from_us(
      static_cast<std::int64_t>(rng.next_below(1'000'000'000'000ULL)));
}

std::optional<Vec2> rnd_opt_vec(Rng& rng) {
  if (rng.next_bool(0.5)) return std::nullopt;
  return rnd_vec(rng);
}

std::vector<std::uint8_t> rnd_blob(Rng& rng) {
  std::vector<std::uint8_t> blob(rng.next_below(64));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
  return blob;
}

std::string rnd_str(Rng& rng) {
  std::string s(rng.next_below(24), '\0');
  for (auto& c : s) {
    c = static_cast<char>('a' + rng.next_below(26));
  }
  return s;
}

std::uint8_t rnd_u8(Rng& rng) {
  return static_cast<std::uint8_t>(rng.next_below(256));
}
std::uint32_t rnd_u32(Rng& rng) {
  return static_cast<std::uint32_t>(rng.next_u64());
}
double rnd_f64(Rng& rng) { return rng.next_double_in(-1.0e6, 1.0e6); }

template <typename IdType>
IdType rnd_id(Rng& rng) {
  return IdType(rng.next_u64());
}

/// A randomized instance of the `index`-th Message alternative.
Message random_message(std::size_t index, Rng& rng) {
  switch (index) {
    case 0: {
      TaggedPacket m;
      m.client = rnd_id<ClientId>(rng);
      m.entity = rnd_id<EntityId>(rng);
      m.origin = rnd_vec(rng);
      m.target = rnd_opt_vec(rng);
      m.radius_class = rnd_u8(rng);
      m.kind = rnd_u8(rng);
      m.seq = rnd_u32(rng);
      m.client_sent_at = rnd_time(rng);
      m.peer_forwarded = rng.next_bool(0.5);
      m.payload = rnd_blob(rng);
      return m;
    }
    case 1: {
      ClientHello m;
      m.client = rnd_id<ClientId>(rng);
      m.position = rnd_vec(rng);
      m.resume = rng.next_bool(0.5);
      m.redirect_seq = rnd_u32(rng);
      m.priority = rnd_u8(rng);
      return m;
    }
    case 2: {
      Welcome m;
      m.client = rnd_id<ClientId>(rng);
      m.avatar = rnd_id<EntityId>(rng);
      m.authority = rnd_rect(rng);
      m.redirect_seq = rnd_u32(rng);
      return m;
    }
    case 3: {
      ClientAction m;
      m.client = rnd_id<ClientId>(rng);
      m.kind = rnd_u8(rng);
      m.position = rnd_vec(rng);
      m.target = rnd_opt_vec(rng);
      m.seq = rnd_u32(rng);
      m.sent_at = rnd_time(rng);
      m.payload = rnd_blob(rng);
      return m;
    }
    case 4: {
      ServerUpdate m;
      m.kind = rnd_u8(rng);
      m.position = rnd_vec(rng);
      m.ack_seq = rnd_u32(rng);
      m.origin_sent_at = rnd_time(rng);
      m.payload = rnd_blob(rng);
      return m;
    }
    case 5: {
      Redirect m;
      m.new_game_node = rnd_id<NodeId>(rng);
      m.new_server = rnd_id<ServerId>(rng);
      m.redirect_seq = rnd_u32(rng);
      return m;
    }
    case 6: return ClientBye{rnd_id<ClientId>(rng)};
    case 7: {
      LoadReport m;
      m.client_count = rnd_u32(rng);
      m.queue_length = rnd_u32(rng);
      m.msgs_per_sec = rnd_f64(rng);
      m.median_position = rnd_vec(rng);
      m.waiting_count = rnd_u32(rng);
      return m;
    }
    case 8: {
      MapRange m;
      m.new_range = rnd_rect(rng);
      m.shed_range = rnd_rect(rng);
      m.shed_to_game = rnd_id<NodeId>(rng);
      m.shed_to_server = rnd_id<ServerId>(rng);
      m.reclaim = rng.next_bool(0.5);
      m.topology_epoch = rng.next_u64();
      return m;
    }
    case 9: return ShedDone{rng.next_u64(), rnd_u32(rng)};
    case 10: {
      OwnerQuery m;
      m.point = rnd_vec(rng);
      m.client = rnd_id<ClientId>(rng);
      m.seq = rnd_u32(rng);
      return m;
    }
    case 11: {
      OwnerReply m;
      m.client = rnd_id<ClientId>(rng);
      m.seq = rnd_u32(rng);
      m.found = rng.next_bool(0.5);
      m.server = rnd_id<ServerId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      return m;
    }
    case 12: {
      Adopt m;
      m.parent = rnd_id<ServerId>(rng);
      m.parent_matrix = rnd_id<NodeId>(rng);
      m.parent_game = rnd_id<NodeId>(rng);
      m.range = rnd_rect(rng);
      m.visibility_radius = rng.next_double_in(1.0, 500.0);
      for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
        m.extra_radii.push_back(rng.next_double_in(1.0, 500.0));
      }
      for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
        m.content_keys.push_back(rnd_str(rng));
      }
      m.topology_epoch = rng.next_u64();
      return m;
    }
    case 13: {
      PeerLoad m;
      m.server = rnd_id<ServerId>(rng);
      m.client_count = rnd_u32(rng);
      m.child_count = rnd_u32(rng);
      return m;
    }
    case 14: return ReclaimRequest{rng.next_u64()};
    case 15: return ReclaimDecline{rnd_id<ServerId>(rng), rng.next_u64()};
    case 16: {
      ReclaimDone m;
      m.child = rnd_id<ServerId>(rng);
      m.range = rnd_rect(rng);
      m.topology_epoch = rng.next_u64();
      return m;
    }
    case 17: {
      StateTransfer m;
      m.from_server = rnd_id<ServerId>(rng);
      m.to_game = rnd_id<NodeId>(rng);
      m.range = rnd_rect(rng);
      m.object_count = rnd_u32(rng);
      m.blob = rnd_blob(rng);
      return m;
    }
    case 18: {
      ClientStateTransfer m;
      m.client = rnd_id<ClientId>(rng);
      m.entity = rnd_id<EntityId>(rng);
      m.to_game = rnd_id<NodeId>(rng);
      m.blob = rnd_blob(rng);
      return m;
    }
    case 19: {
      ServerRegister m;
      m.server = rnd_id<ServerId>(rng);
      m.matrix_node = rnd_id<NodeId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      m.range = rnd_rect(rng);
      for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
        m.radii.push_back(rng.next_double_in(1.0, 500.0));
      }
      return m;
    }
    case 20: return ServerUnregister{rnd_id<ServerId>(rng)};
    case 21: {
      OverlapTableMsg m;
      m.server = rnd_id<ServerId>(rng);
      m.partition = rnd_rect(rng);
      m.radius_class = rnd_u8(rng);
      m.radius = rng.next_double_in(1.0, 500.0);
      m.version = rng.next_u64();
      for (std::uint64_t r = rng.next_below(4); r > 0; --r) {
        OverlapRegionWire region;
        region.rect = rnd_rect(rng);
        for (std::uint64_t p = rng.next_below(4); p > 0; --p) {
          OverlapPeer peer;
          peer.server = rnd_id<ServerId>(rng);
          peer.matrix_node = rnd_id<NodeId>(rng);
          region.peers.push_back(peer);
        }
        m.regions.push_back(std::move(region));
      }
      return m;
    }
    case 22: return PointLookup{rnd_vec(rng), rnd_u32(rng)};
    case 23: {
      PointOwner m;
      m.lookup_seq = rnd_u32(rng);
      m.found = rng.next_bool(0.5);
      m.server = rnd_id<ServerId>(rng);
      m.matrix_node = rnd_id<NodeId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      return m;
    }
    case 24:
      // Includes the policy layer's need hint (0 = classic FCFS; positive
      // values bias contested-grant arbitration).
      return PoolAcquire{rnd_id<ServerId>(rng),
                         rng.next_bool(0.5) ? 0.0
                                            : rng.next_double_in(0.0, 64.0)};
    case 25: {
      PoolGrant m;
      m.server = rnd_id<ServerId>(rng);
      m.matrix_node = rnd_id<NodeId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      return m;
    }
    case 26: return PoolDeny{};
    case 27: {
      PoolRelease m;
      m.server = rnd_id<ServerId>(rng);
      m.matrix_node = rnd_id<NodeId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      return m;
    }
    case 28: return McAnnounce{rnd_id<NodeId>(rng), rng.next_u64()};
    case 29: return JoinDeny{rnd_id<ClientId>(rng), rnd_time(rng)};
    case 30: return JoinDefer{rnd_id<ClientId>(rng), rnd_time(rng)};
    case 31: return AdmissionUpdate{rnd_u8(rng), rng.next_u64()};
    case 32: return PoolStatus{rnd_u32(rng), rnd_u32(rng)};
    case 33: return PoolPressure{rnd_u32(rng), rnd_u32(rng)};
    case 34: {
      QueueUpdate m;
      m.client = rnd_id<ClientId>(rng);
      m.position = rnd_u32(rng);
      m.depth = rnd_u32(rng);
      m.eta = rnd_time(rng);
      return m;
    }
    case 35: {
      LoadDigest m;
      m.server = rnd_id<ServerId>(rng);
      m.client_count = rnd_u32(rng);
      m.queue_length = rnd_u32(rng);
      m.waiting_count = rnd_u32(rng);
      m.admission_state = rnd_u8(rng);
      return m;
    }
    case 36: {
      AdmissionDirective m;
      m.seq = rng.next_u64();
      m.floor = rnd_u8(rng);
      m.active = rng.next_bool(0.5);
      m.token_rate = rng.next_double_in(0.0, 1000.0);
      m.pressure = rng.next_double();
      m.waiting_total = rnd_u32(rng);
      return m;
    }
    case 37: {
      QueueHandoff m;
      m.from_server = rnd_id<ServerId>(rng);
      m.to_game = rnd_id<NodeId>(rng);
      for (std::uint64_t i = rng.next_below(5); i > 0; --i) {
        QueueHandoffEntry entry;
        entry.client = rnd_id<ClientId>(rng);
        entry.client_node = rnd_id<NodeId>(rng);
        entry.position = rnd_vec(rng);
        entry.cls = rnd_u8(rng);
        entry.enqueued_at = rnd_time(rng);
        m.entries.push_back(entry);
      }
      return m;
    }
    case 38:
      return McHeartbeat{rnd_id<NodeId>(rng), rng.next_u64(), rng.next_u64()};
    default: break;
  }
  ADD_FAILURE() << "random_message: unhandled alternative " << index;
  return PoolDeny{};
}

class ProtocolRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolRoundTripProperty, EveryMessageSurvivesTheCodec) {
  Rng rng(GetParam());
  constexpr std::size_t kAlternatives = std::variant_size_v<Message>;
  for (std::size_t index = 0; index < kAlternatives; ++index) {
    for (int rep = 0; rep < 8; ++rep) {
      const Message in = random_message(index, rng);
      ASSERT_EQ(in.index(), index) << "generator built the wrong alternative";
      EXPECT_STRNE(message_name(in), "Unknown");
      const auto bytes = encode_message(in);
      const auto out = decode_message(bytes);
      ASSERT_TRUE(out.has_value())
          << message_name(in) << " failed to decode (seed " << GetParam()
          << ", rep " << rep << ")";
      EXPECT_TRUE(*out == in)
          << message_name(in) << " decoded to different field values (seed "
          << GetParam() << ", rep " << rep << ")";
      EXPECT_EQ(encode_message(*out), bytes)
          << message_name(in) << " re-encode mismatch (seed " << GetParam()
          << ", rep " << rep << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Wire type bytes
// ---------------------------------------------------------------------------

// Type bytes are part of the protocol (variant index + 1, append only):
// pinned for the frames the nodes dispatch on, so a reordered message list
// fails here instead of on the wire.
static_assert(wire_type<TaggedPacket> == 1);
static_assert(wire_type<ClientAction> == 4);
static_assert(wire_type<ServerUpdate> == 5);
static_assert(wire_type<LoadReport> == 8);
static_assert(wire_type<StateTransfer> == 18);
static_assert(wire_type<ClientStateTransfer> == 19);
static_assert(wire_type<QueueUpdate> == 35);
static_assert(wire_type<QueueHandoff> == 38);
static_assert(wire_type<McHeartbeat> == 39);

TEST(ProtocolTest, TypeByteIsVariantIndexPlusOne) {
  Rng rng(11);
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    const auto bytes = encode_message(random_message(index, rng));
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], index + 1);
  }
}

// ---------------------------------------------------------------------------
// Zero-copy frame views agree with the full decode
// ---------------------------------------------------------------------------
//
// The nodes handle TaggedPacket, ClientAction, ServerUpdate, LoadReport,
// QueueUpdate and the relay legs ONLY through these views, so "the view
// rejects" must mean "decode_message rejects", and an accepted view must
// carry the decoded field values.  The comparisons below are spelled out
// field by field rather than derived from the `fields` descriptions.

template <typename M>
const M* decoded_as(const std::optional<Message>& decoded) {
  return decoded ? std::get_if<M>(&*decoded) : nullptr;
}

bool same_bytes(std::span<const std::uint8_t> view,
                const PayloadBytes& payload) {
  return std::equal(view.begin(), view.end(), payload.begin(), payload.end());
}

// Bitwise, because a corrupted frame can decode a NaN.
bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same(Vec2 a, Vec2 b) { return same(a.x, b.x) && same(a.y, b.y); }
bool same(const std::optional<Vec2>& a, const std::optional<Vec2>& b) {
  return a.has_value() == b.has_value() && (!a || same(*a, *b));
}

/// Checks every view's verdict on `frame` against decode_message's.
void expect_views_agree(std::span<const std::uint8_t> frame,
                        const std::string& context) {
  const std::optional<Message> decoded = decode_message(frame);

  const auto tagged = parse_tagged_packet_frame(frame);
  const auto* tagged_full = decoded_as<TaggedPacket>(decoded);
  ASSERT_EQ(tagged.has_value(), tagged_full != nullptr) << context;
  if (tagged) {
    EXPECT_TRUE(tagged->client == tagged_full->client &&
                tagged->entity == tagged_full->entity &&
                same(tagged->origin, tagged_full->origin) &&
                same(tagged->target, tagged_full->target) &&
                tagged->radius_class == tagged_full->radius_class &&
                tagged->kind == tagged_full->kind &&
                tagged->seq == tagged_full->seq &&
                tagged->client_sent_at == tagged_full->client_sent_at &&
                tagged->peer_forwarded == tagged_full->peer_forwarded &&
                same_bytes(tagged->payload, tagged_full->payload))
        << context;
    EXPECT_EQ(frame[tagged->peer_flag_offset] != 0,
              tagged_full->peer_forwarded)
        << context;
    EXPECT_EQ(encode_message(Message{tagged->materialize()}),
              encode_message(*decoded))
        << context;
  }

  const auto action = parse_client_action_frame(frame);
  const auto* action_full = decoded_as<ClientAction>(decoded);
  ASSERT_EQ(action.has_value(), action_full != nullptr) << context;
  if (action) {
    EXPECT_TRUE(action->client == action_full->client &&
                action->kind == action_full->kind &&
                same(action->position, action_full->position) &&
                same(action->target, action_full->target) &&
                action->seq == action_full->seq &&
                action->sent_at == action_full->sent_at &&
                same_bytes(action->payload, action_full->payload))
        << context;
  }

  const auto update = parse_server_update_frame(frame);
  const auto* update_full = decoded_as<ServerUpdate>(decoded);
  ASSERT_EQ(update.has_value(), update_full != nullptr) << context;
  if (update) {
    EXPECT_TRUE(update->kind == update_full->kind &&
                same(update->position, update_full->position) &&
                update->ack_seq == update_full->ack_seq &&
                update->origin_sent_at == update_full->origin_sent_at &&
                same_bytes(update->payload, update_full->payload))
        << context;
  }

  const auto report = parse_load_report_frame(frame);
  const auto* report_full = decoded_as<LoadReport>(decoded);
  ASSERT_EQ(report.has_value(), report_full != nullptr) << context;
  if (report) {
    EXPECT_TRUE(report->client_count == report_full->client_count &&
                report->queue_length == report_full->queue_length &&
                same(report->msgs_per_sec, report_full->msgs_per_sec) &&
                same(report->median_position, report_full->median_position) &&
                report->waiting_count == report_full->waiting_count)
        << context;
  }

  const auto queue = parse_queue_update_frame(frame);
  const auto* queue_full = decoded_as<QueueUpdate>(decoded);
  ASSERT_EQ(queue.has_value(), queue_full != nullptr) << context;
  if (queue) {
    EXPECT_TRUE(queue->client == queue_full->client &&
                queue->position == queue_full->position &&
                queue->depth == queue_full->depth &&
                queue->eta == queue_full->eta)
        << context;
  }

  // The relay reads only the destination prefix, so it may accept a frame
  // whose tail is malformed (the destination then rejects it); on a frame
  // that decodes it must find the decoded destination, and it must never
  // accept a decodable frame of another type.
  const auto relay = parse_relay_frame(frame);
  std::optional<NodeId> destination;
  if (const auto* st = decoded_as<StateTransfer>(decoded)) {
    destination = st->to_game;
  } else if (const auto* cst = decoded_as<ClientStateTransfer>(decoded)) {
    destination = cst->to_game;
  } else if (const auto* handoff = decoded_as<QueueHandoff>(decoded)) {
    destination = handoff->to_game;
  }
  if (destination) {
    ASSERT_TRUE(relay.has_value()) << context;
    EXPECT_EQ(relay->wire_type, frame[0]) << context;
    EXPECT_EQ(relay->to_game, *destination) << context;
  } else if (decoded) {
    EXPECT_FALSE(relay.has_value()) << context;
  }
}

std::string describe(const Message& m, const char* what, std::size_t at) {
  return std::string(message_name(m)) + " " + what + " " + std::to_string(at);
}

TEST(ProtocolTest, ViewsAgreeWithFullDecodeOnRandomMessages) {
  Rng rng(2024);
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    for (int rep = 0; rep < 16; ++rep) {
      const Message m = random_message(index, rng);
      const auto bytes = encode_message(m);
      expect_views_agree(bytes, describe(m, "rep", rep));
    }
  }
}

TEST(ProtocolTest, PeerFlagOffsetAddressesThePeerForwardedByte) {
  // The matrix relay forwards a packet flag-flipped by copying the frame
  // and writing one byte; that must equal re-encoding the mutated packet.
  Rng rng(5);
  for (int rep = 0; rep < 64; ++rep) {
    auto packet = std::get<TaggedPacket>(random_message(0, rng));
    packet.peer_forwarded = false;
    auto frame = encode_message(Message{packet});
    const auto view = parse_tagged_packet_frame(frame);
    ASSERT_TRUE(view.has_value());
    frame[view->peer_flag_offset] = 1;
    packet.peer_forwarded = true;
    EXPECT_EQ(frame, encode_message(Message{packet})) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------------
// Robustness
// ---------------------------------------------------------------------------

TEST(ProtocolTest, EmptyBufferFailsToDecode) {
  EXPECT_FALSE(decode_message({}).has_value());
  EXPECT_FALSE(parse_relay_frame({}).has_value());
}

TEST(ProtocolTest, UnknownTypeTagFailsToDecode) {
  const std::uint8_t past_last = std::variant_size_v<Message> + 1;
  for (const std::uint8_t type : {std::uint8_t{0}, past_last, std::uint8_t{0xFF}}) {
    const std::vector<std::uint8_t> bytes{type, 0x00};
    EXPECT_FALSE(decode_message(bytes).has_value()) << int{type};
    expect_views_agree(bytes, "type byte " + std::to_string(type));
  }
}

TEST(ProtocolTest, EveryStrictPrefixIsRejected) {
  // Every field is read, so a frame cut anywhere short of its end must be
  // refused — by decode_message and by the view of its type alike.
  Rng rng(99);
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    for (int rep = 0; rep < 4; ++rep) {
      const Message m = random_message(index, rng);
      const auto bytes = encode_message(m);
      for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::span<const std::uint8_t> prefix(bytes.data(), len);
        EXPECT_FALSE(decode_message(prefix).has_value())
            << describe(m, "prefix", len);
        expect_views_agree(prefix, describe(m, "prefix", len));
      }
    }
  }
}

TEST(ProtocolTest, EverySingleBitFlipDecodesSafely) {
  // A corrupted frame must decode to some value or to nullopt — never
  // read out of bounds, overflow or allocate without bound (the ASan/UBSan
  // CI job runs this) — and the views must still agree with the decode.
  Rng rng(4242);
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    for (int rep = 0; rep < 2; ++rep) {
      const Message m = random_message(index, rng);
      auto bytes = encode_message(m);
      for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
        bytes[bit / 8] ^= mask;
        expect_views_agree(bytes, describe(m, "bit", bit));
        bytes[bit / 8] ^= mask;
      }
    }
  }
}

TEST(ProtocolTest, RandomBytesNeverCrashDecoder) {
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    expect_views_agree(junk, "trial " + std::to_string(trial));
  }
}

TEST(ProtocolTest, MessageNameCoversAllAlternatives) {
  Rng rng(7);
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    EXPECT_STRNE(message_name(random_message(index, rng)), "Unknown");
  }
  EXPECT_STREQ(message_name(Message{TaggedPacket{}}), "TaggedPacket");
  EXPECT_STREQ(message_name(Message{PoolDeny{}}), "PoolDeny");
  EXPECT_STREQ(message_name(Message{PoolAcquire{}}), "PoolAcquire");
  EXPECT_STREQ(message_name(Message{AdmissionDirective{}}),
               "AdmissionDirective");
  EXPECT_STREQ(message_name(Message{QueueHandoff{}}), "QueueHandoff");
  EXPECT_STREQ(message_name(Message{McHeartbeat{}}), "McHeartbeat");
}

TEST(ProtocolTest, WireSizeTracksPayload) {
  TaggedPacket small, big;
  small.payload.assign(10, 0);
  big.payload.assign(500, 0);
  EXPECT_GT(encode_message(Message{big}).size(),
            encode_message(Message{small}).size() + 480);
}

}  // namespace
}  // namespace matrix
