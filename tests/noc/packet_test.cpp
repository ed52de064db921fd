#include "noc/packet.hpp"

#include <gtest/gtest.h>

namespace htpb::noc {
namespace {

TEST(Packet, FlitizationSizes) {
  PacketPool pool;
  auto pkt = pool.allocate();
  pkt->size_flits = 5;
  std::vector<Flit> flits;
  make_flits_into(pkt, flits);
  ASSERT_EQ(flits.size(), 5U);
  EXPECT_TRUE(flits.front().is_head);
  EXPECT_FALSE(flits.front().is_tail);
  EXPECT_TRUE(flits.back().is_tail);
  EXPECT_FALSE(flits.back().is_head);
  for (std::size_t i = 0; i < flits.size(); ++i) {
    EXPECT_EQ(flits[i].index, i);
    EXPECT_EQ(flits[i].pkt.get(), pkt.get());
  }
}

TEST(Packet, SingleFlitIsHeadAndTail) {
  PacketPool pool;
  auto pkt = pool.allocate();
  pkt->size_flits = 1;
  std::vector<Flit> flits;
  make_flits_into(pkt, flits);
  ASSERT_EQ(flits.size(), 1U);
  EXPECT_TRUE(flits[0].is_head);
  EXPECT_TRUE(flits[0].is_tail);
}

TEST(Packet, ZeroSizeClampedToOneFlit) {
  PacketPool pool;
  auto pkt = pool.allocate();
  pkt->size_flits = 0;
  std::vector<Flit> flits;
  make_flits_into(pkt, flits);
  EXPECT_EQ(flits.size(), 1U);
}

TEST(Packet, VcClassPartition) {
  // Requests and control traffic in class 0; replies in class 1 --
  // protocol-deadlock avoidance invariant.
  EXPECT_EQ(vc_class_of(PacketType::kPowerRequest), 0);
  EXPECT_EQ(vc_class_of(PacketType::kConfigCmd), 0);
  EXPECT_EQ(vc_class_of(PacketType::kMemReadReq), 0);
  EXPECT_EQ(vc_class_of(PacketType::kMemWriteReq), 0);
  EXPECT_EQ(vc_class_of(PacketType::kCohInvalidate), 0);
  EXPECT_EQ(vc_class_of(PacketType::kWriteback), 0);
  EXPECT_EQ(vc_class_of(PacketType::kPowerGrant), 1);
  EXPECT_EQ(vc_class_of(PacketType::kMemReply), 1);
  EXPECT_EQ(vc_class_of(PacketType::kCohAck), 1);
}

TEST(Packet, ToStringMentionsTampering) {
  Packet pkt;
  pkt.type = PacketType::kPowerRequest;
  pkt.payload = 42;
  EXPECT_EQ(pkt.to_string().find("TAMPERED"), std::string::npos);
  pkt.tampered = true;
  pkt.original_payload = 99;
  EXPECT_NE(pkt.to_string().find("TAMPERED"), std::string::npos);
}

TEST(PacketTypeNames, AllDistinct) {
  EXPECT_STREQ(to_string(PacketType::kPowerRequest), "POWER_REQ");
  EXPECT_STREQ(to_string(PacketType::kConfigCmd), "CONFIG_CMD");
  EXPECT_STREQ(to_string(PacketType::kPowerGrant), "POWER_GRANT");
}

}  // namespace
}  // namespace htpb::noc
