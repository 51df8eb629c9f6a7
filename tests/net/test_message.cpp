#include "net/message.hpp"

#include <gtest/gtest.h>

#include <variant>

namespace pas::net {
namespace {

TEST(Message, RequestHasHeaderOnlySize) {
  const Message m;
  EXPECT_EQ(m.type(), MessageType::kRequest);
  EXPECT_EQ(m.size_bits(), Message::kHeaderBytes * 8);
}

TEST(Message, ResponseCarriesPayloadBytes) {
  Message m;
  m.payload = ResponsePayload{};
  EXPECT_EQ(m.type(), MessageType::kResponse);
  EXPECT_EQ(m.size_bits(),
            (Message::kHeaderBytes + Message::kResponsePayloadBytes) * 8);
}

TEST(Message, ResponseIsBiggerThanRequest) {
  Message req, rsp;
  rsp.payload = ResponsePayload{};
  EXPECT_GT(rsp.size_bits(), req.size_bits());
}

TEST(Message, TypeNames) {
  EXPECT_STREQ(to_string(MessageType::kRequest), "REQUEST");
  EXPECT_STREQ(to_string(MessageType::kResponse), "RESPONSE");
}

TEST(Message, PayloadDefaults) {
  const ResponsePayload p;
  EXPECT_FALSE(p.velocity_valid);
  EXPECT_EQ(p.predicted_arrival, sim::kNever);
  EXPECT_EQ(p.detected_at, sim::kNever);
}

TEST(Message, PayloadReadsOnlyThroughItsOwnType) {
  Message m;
  EXPECT_THROW((void)m.response(), std::bad_variant_access);
  EXPECT_THROW((void)m.alert(), std::bad_variant_access);

  m.payload.emplace<AlertPayload>().hops = 3;
  EXPECT_EQ(m.type(), MessageType::kAlert);
  EXPECT_EQ(m.alert().hops, 3);
  EXPECT_EQ(m.size_bits(),
            (Message::kHeaderBytes + Message::kAlertPayloadBytes) * 8);
  EXPECT_THROW((void)m.response(), std::bad_variant_access);
}

}  // namespace
}  // namespace pas::net
