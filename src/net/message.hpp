// Protocol messages (§3.2 of the paper).
//
//   REQUEST  — no payload; asks neighbors for stimulus information.
//   RESPONSE — sender's location, state, estimated spread velocity, predicted
//              arrival time, and (for covered nodes) its detection time.
//
// The net layer is protocol-agnostic: the node state travels as a raw byte
// that pas::core maps to its NodeState enum; this keeps net below core in
// the layering.
//
// A message carries at most one payload, held in a std::variant: the
// variant's alternative *is* the message type, and a payload can only be
// read through its own type (reading the wrong one throws). Sharing one slot
// keeps Message at 80 B, so a broadcast's delivery closure (Network + the
// Message by value) fits sim::SmallFn's inline buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>

#include "geom/vec2.hpp"
#include "sim/time.hpp"

namespace pas::net {

enum class MessageType : std::uint8_t {
  kRequest,
  kResponse,
  kAlert,
};

[[nodiscard]] constexpr const char* to_string(MessageType t) noexcept {
  switch (t) {
    case MessageType::kRequest: return "REQUEST";
    case MessageType::kResponse: return "RESPONSE";
    case MessageType::kAlert: return "ALERT";
  }
  return "?";
}

/// RESPONSE payload. Sizes below follow a plausible on-air encoding; they
/// only matter through tx-time and energy, not through parsing (messages are
/// passed in-memory inside the simulator). Members are ordered widest first
/// so the struct packs to 56 B in memory.
struct ResponsePayload {
  geom::Vec2 position{};           // 8 B (two half-precision-ish fixed point)
  geom::Vec2 velocity{};           // 8 B estimated spread velocity vector
  sim::Time predicted_arrival = sim::kNever;  // 4 B
  sim::Time detected_at = sim::kNever;        // 4 B (covered nodes only)
  std::uint8_t state = 0;          // 1 B
  bool velocity_valid = false;     // (flag bit inside state byte on air)
};

/// ALERT payload (multihop collection, net/collection.hpp): the alert id,
/// the originating detector, the hop count so far, the measured detection
/// time, and the predicted arrival the backbone would answer with on a
/// Sleep-Route fallback.
struct AlertPayload {
  std::uint32_t id = 0;                       // 4 B
  std::uint32_t origin = 0;                   // 2 B on air (node id)
  std::uint8_t hops = 0;                      // 1 B
  sim::Time detected_at = sim::kNever;        // 4 B
  sim::Time predicted_arrival = sim::kNever;  // 4 B
};

/// The payload slot. Alternative order follows MessageType: no payload is a
/// REQUEST.
using Payload = std::variant<std::monostate, ResponsePayload, AlertPayload>;

struct Message {
  std::uint32_t sender = 0;
  sim::Time sent_at = 0.0;
  Payload payload{};

  [[nodiscard]] constexpr MessageType type() const noexcept {
    return static_cast<MessageType>(payload.index());
  }
  /// The RESPONSE / ALERT payload; throws std::bad_variant_access when the
  /// message is of another type.
  [[nodiscard]] const ResponsePayload& response() const {
    return std::get<ResponsePayload>(payload);
  }
  [[nodiscard]] const AlertPayload& alert() const {
    return std::get<AlertPayload>(payload);
  }

  /// 802.15.4-style MAC/PHY framing overhead per packet.
  static constexpr std::size_t kHeaderBytes = 12;
  /// Encoded RESPONSE payload size.
  static constexpr std::size_t kResponsePayloadBytes = 25;
  /// Encoded ALERT payload size (per-field sizes above).
  static constexpr std::size_t kAlertPayloadBytes = 15;

  [[nodiscard]] constexpr std::size_t size_bits() const noexcept {
    std::size_t bytes = kHeaderBytes;
    switch (type()) {
      case MessageType::kRequest: break;
      case MessageType::kResponse: bytes += kResponsePayloadBytes; break;
      case MessageType::kAlert: bytes += kAlertPayloadBytes; break;
    }
    return bytes * 8;
  }
};

static_assert(Message{}.type() == MessageType::kRequest &&
              Message{0, 0.0, ResponsePayload{}}.type() ==
                  MessageType::kResponse &&
              Message{0, 0.0, AlertPayload{}}.type() == MessageType::kAlert);

}  // namespace pas::net
