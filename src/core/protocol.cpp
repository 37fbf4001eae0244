#include "core/protocol.h"

#include <array>
#include <bit>
#include <iterator>
#include <utility>

namespace matrix {

namespace {

// ---- field kinds -------------------------------------------------------------
//
// The wire form of every field type a `fields` description may use, as three
// parallel chains (exact size, encode, decode).  A described struct (a
// message, or a nested one such as OverlapPeer) is its fields in order; a
// vector is a varint count, then its elements; byte strings are a varint
// length, then the bytes.  Any other field type fails to compile.
//
// The three chains are always inlined, so each message's encoder and
// decoder is straight-line code, as fast as a hand-written one; the
// compiler otherwise stops inlining these nested templates a few levels
// down.  The views are also flattened, ByteReader included — a view is the
// hottest decode and only five exist (perfbench's core.codec.* replay
// times show both gaps).  Flattening the 39 encoders as well would be
// faster still, but the code it adds slows the deployment's cold set-up.

template <typename T>
concept Described = requires(T& m) { T::fields(m, [](auto&...) {}); };

template <typename T>
inline constexpr bool kIsId = false;
template <typename Tag>
inline constexpr bool kIsId<Id<Tag>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kIsBytes =
    std::is_same_v<T, PayloadBytes> ||
    std::is_same_v<T, std::vector<std::uint8_t>> ||
    std::is_same_v<T, std::span<const std::uint8_t>> ||
    std::is_same_v<T, std::string>;

std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

template <typename T>
[[gnu::always_inline]] inline std::size_t wire_size(const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t>) {
    return 1;
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return 4;
  } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                       std::is_same_v<T, double> ||
                       std::is_same_v<T, SimTime>) {
    return 8;
  } else if constexpr (kIsId<T>) {
    return varint_size(v.value());
  } else if constexpr (std::is_same_v<T, Vec2>) {
    return 16;
  } else if constexpr (std::is_same_v<T, Rect>) {
    return 32;
  } else if constexpr (std::is_same_v<T, std::optional<Vec2>>) {
    return v ? 17 : 1;
  } else if constexpr (kIsBytes<T>) {
    return varint_size(v.size()) + v.size();
  } else if constexpr (kIsVector<T>) {
    std::size_t size = varint_size(v.size());
    for (const auto& item : v) size += wire_size(item);
    return size;
  } else {
    static_assert(Described<T>, "field type has no wire form");
    std::size_t size = 0;
    T::fields(v, [&size](const auto&... field) {
      size = (std::size_t{0} + ... + wire_size(field));
    });
    return size;
  }
}

template <typename T>
[[gnu::always_inline]] inline void put(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, SimTime>) {
    w.i64(v.us());
  } else if constexpr (kIsId<T>) {
    w.id(v);
  } else if constexpr (std::is_same_v<T, Vec2>) {
    w.f64(v.x);
    w.f64(v.y);
  } else if constexpr (std::is_same_v<T, Rect>) {
    w.f64(v.x0());
    w.f64(v.y0());
    w.f64(v.x1());
    w.f64(v.y1());
  } else if constexpr (std::is_same_v<T, std::optional<Vec2>>) {
    w.u8(v ? 1 : 0);
    if (v) put(w, *v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (kIsBytes<T>) {
    w.raw(v);
  } else if constexpr (kIsVector<T>) {
    w.varint(v.size());
    for (const auto& item : v) put(w, item);
  } else {
    T::fields(v, [&w](const auto&... field) { (put(w, field), ...); });
  }
}

/// Decodes into `v`.  A read past the end flips `r.ok()`; callers check it
/// once at the end, so every field type only has to stay in bounds.
template <typename T>
[[gnu::always_inline]] inline void get(ByteReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, SimTime>) {
    v = SimTime::from_us(r.i64());
  } else if constexpr (kIsId<T>) {
    v = r.id<T>();
  } else if constexpr (std::is_same_v<T, Vec2>) {
    v.x = r.f64();
    v.y = r.f64();
  } else if constexpr (std::is_same_v<T, Rect>) {
    const double x0 = r.f64();
    const double y0 = r.f64();
    const double x1 = r.f64();
    const double y1 = r.f64();
    v = Rect(x0, y0, x1, y1);
  } else if constexpr (std::is_same_v<T, std::optional<Vec2>>) {
    if (r.u8() == 0) {
      v.reset();
    } else {
      get(r, v.emplace());
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, std::span<const std::uint8_t>>) {
    v = r.raw_span();
  } else if constexpr (std::is_same_v<T, PayloadBytes>) {
    const std::span<const std::uint8_t> bytes = r.raw_span();
    v.assign(bytes.data(), bytes.size());
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    const std::span<const std::uint8_t> bytes = r.raw_span();
    v.assign(bytes.begin(), bytes.end());
  } else if constexpr (kIsVector<T>) {
    // Every element reads at least one byte, so a corrupt count ends the
    // loop at the end of the frame instead of allocating up to it.
    v.clear();
    const std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) get(r, v.emplace_back());
  } else {
    T::fields(v, [&r](auto&... field) { (get(r, field), ...); });
  }
}

// ---- type byte ↔ variant index ---------------------------------------------

/// The Message index a wire type byte names (the inverse of wire_type), or
/// std::variant_npos for a byte that names no message.
constexpr std::size_t message_index(std::uint8_t type) {
  return type == 0 || type > std::variant_size_v<Message>
             ? std::variant_npos
             : std::size_t{type} - 1;
}

using Decoder = void (*)(ByteReader&, std::optional<Message>&);

template <std::size_t I>
void decode_alternative(ByteReader& r, std::optional<Message>& out) {
  get(r, std::get<I>(out.emplace(std::in_place_index<I>)));
}

template <std::size_t... I>
constexpr std::array<Decoder, sizeof...(I)> make_decoders(
    std::index_sequence<I...>) {
  return {&decode_alternative<I>...};
}

constexpr auto kDecoders =
    make_decoders(std::make_index_sequence<std::variant_size_v<Message>>());

#define MATRIX_MESSAGE_NAME(T) #T,
constexpr const char* kMessageNames[] = {
    MATRIX_MESSAGE_TYPES(MATRIX_MESSAGE_NAME)};
#undef MATRIX_MESSAGE_NAME
static_assert(std::size(kMessageNames) == std::variant_size_v<Message>);

/// Decodes a frame of message type `M` into `Out`: M itself, or its
/// zero-copy view.
template <typename M, typename Out = M>
[[gnu::flatten]] std::optional<Out> decode_frame(
    std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  std::optional<Out> out;
  if (r.u8() != wire_type<M>) return out;
  get(r, out.emplace());
  if (!r.ok()) out.reset();
  return out;
}

/// Reads M's fields in wire order up to and including `to_game`.
template <typename M>
NodeId read_destination(ByteReader& r) {
  M m;
  M::fields(m, [&](auto&... field) {
    bool reached = false;
    const auto read = [&](auto& f) {
      if (reached) return;
      get(r, f);
      reached = static_cast<const void*>(&f) == &m.to_game;
    };
    (read(field), ...);
  });
  return m.to_game;
}

}  // namespace

// ---- encode ------------------------------------------------------------------

std::vector<std::uint8_t> encode_message(const Message& message) {
  ByteWriter w;
  encode_message_into(w, message);
  return w.take();
}

void encode_message_into(ByteWriter& w, const Message& message) {
  std::visit([&w](const auto& body) { encode_one_into(w, body); }, message);
}

template <typename Body>
void encode_one_into(ByteWriter& writer, const Body& body) {
  writer.reserve(writer.size() + 1 + wire_size(body));
  writer.u8(wire_type<Body>);
  put(writer, body);
}

#define MATRIX_INSTANTIATE_ENCODE(T) \
  template void encode_one_into<T>(ByteWriter&, const T&);
MATRIX_MESSAGE_TYPES(MATRIX_INSTANTIATE_ENCODE)
#undef MATRIX_INSTANTIATE_ENCODE

// ---- decode ------------------------------------------------------------------

std::optional<Message> decode_message(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::size_t index = message_index(r.u8());
  std::optional<Message> out;
  if (index == std::variant_npos) return out;
  kDecoders[index](r, out);
  if (!r.ok()) out.reset();
  return out;
}

const char* message_name(const Message& message) {
  return message.valueless_by_exception() ? "Unknown"
                                          : kMessageNames[message.index()];
}

// ---- zero-copy frame views ---------------------------------------------------

namespace {
template <typename T, typename View>
void copy_field(T& to, const View& from) {
  if constexpr (std::is_same_v<T, PayloadBytes>) {
    to.assign(from.data(), from.size());
  } else {
    to = from;
  }
}
}  // namespace

TaggedPacket TaggedPacketView::materialize() const {
  TaggedPacket packet;
  TaggedPacket::fields(packet, [this](auto&... to) {
    TaggedPacketView::fields(
        *this, [&](const auto&... from) { (copy_field(to, from), ...); });
  });
  return packet;
}

std::optional<TaggedPacketView> parse_tagged_packet_frame(
    std::span<const std::uint8_t> frame) {
  std::optional<TaggedPacketView> view =
      decode_frame<TaggedPacket, TaggedPacketView>(frame);
  if (view) {
    // The payload is the last field and peer_forwarded the one before it,
    // so the flag sits just ahead of the payload's length prefix.
    view->peer_flag_offset =
        static_cast<std::size_t>(view->payload.data() - frame.data()) -
        varint_size(view->payload.size()) - 1;
  }
  return view;
}

std::optional<ClientActionView> parse_client_action_frame(
    std::span<const std::uint8_t> frame) {
  return decode_frame<ClientAction, ClientActionView>(frame);
}

std::optional<ServerUpdateView> parse_server_update_frame(
    std::span<const std::uint8_t> frame) {
  return decode_frame<ServerUpdate, ServerUpdateView>(frame);
}

std::optional<LoadReport> parse_load_report_frame(
    std::span<const std::uint8_t> frame) {
  return decode_frame<LoadReport>(frame);
}

std::optional<QueueUpdate> parse_queue_update_frame(
    std::span<const std::uint8_t> frame) {
  return decode_frame<QueueUpdate>(frame);
}

std::optional<RelayFrameView> parse_relay_frame(
    std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  RelayFrameView view;
  view.wire_type = r.u8();
  // Nothing after `to_game` is read, so the relay never walks the (possibly
  // huge) blob/entry tail.
  switch (view.wire_type) {
    case wire_type<StateTransfer>:
      view.to_game = read_destination<StateTransfer>(r);
      break;
    case wire_type<ClientStateTransfer>:
      view.to_game = read_destination<ClientStateTransfer>(r);
      break;
    case wire_type<QueueHandoff>:
      view.to_game = read_destination<QueueHandoff>(r);
      break;
    default:
      return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return view;
}

}  // namespace matrix
