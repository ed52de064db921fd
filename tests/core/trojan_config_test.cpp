#include "core/trojan_config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace htpb::core {
namespace {

TEST(TrojanConfigCodec, RoundTrip) {
  TrojanConfig cfg;
  cfg.active = true;
  cfg.attenuate_victims = true;
  cfg.boost_attackers = false;
  cfg.victim_scale = 0.10;
  cfg.attacker_boost = 8.0;
  cfg.global_manager = 136;
  cfg.attacker_agents = {3, 77, 200};

  noc::Packet pkt;
  encode_config(cfg, pkt);
  EXPECT_EQ(pkt.type, noc::PacketType::kConfigCmd);

  const auto decoded = decode_config(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->active);
  EXPECT_TRUE(decoded->attenuate_victims);
  EXPECT_FALSE(decoded->boost_attackers);
  EXPECT_NEAR(decoded->victim_scale, 0.10, 0.005);
  EXPECT_NEAR(decoded->attacker_boost, 8.0, 0.01);
  EXPECT_EQ(decoded->global_manager, 136U);
  EXPECT_EQ(decoded->attacker_agents, (std::vector<NodeId>{3, 77, 200}));
}

TEST(TrojanConfigCodec, DeactivationFrame) {
  TrojanConfig cfg;
  cfg.active = false;
  cfg.global_manager = 1;
  noc::Packet pkt;
  encode_config(cfg, pkt);
  const auto decoded = decode_config(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->active);
}

TEST(TrojanConfigCodec, ScaleQuantizedToPercent) {
  TrojanConfig cfg;
  cfg.victim_scale = 0.333;
  cfg.global_manager = 0;
  noc::Packet pkt;
  encode_config(cfg, pkt);
  EXPECT_NEAR(decode_config(pkt)->victim_scale, 0.33, 1e-9);
}

TEST(TrojanConfigCodec, RejectsWrongType) {
  noc::Packet pkt;
  pkt.type = noc::PacketType::kPowerRequest;
  pkt.options = {1, 2};
  EXPECT_FALSE(decode_config(pkt).has_value());
}

TEST(TrojanConfigCodec, RejectsTruncatedFrame) {
  noc::Packet pkt;
  pkt.type = noc::PacketType::kConfigCmd;
  pkt.options.clear();  // missing the manager id
  EXPECT_FALSE(decode_config(pkt).has_value());
}

TEST(TrojanConfigCodec, EmptyAttackerListAllowed) {
  TrojanConfig cfg;
  cfg.global_manager = 4;
  cfg.attacker_agents.clear();
  noc::Packet pkt;
  encode_config(cfg, pkt);
  const auto decoded = decode_config(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->attacker_agents.empty());
}

TEST(TrojanConfigCodec, ExtremeValuesClamped) {
  TrojanConfig cfg;
  cfg.victim_scale = 9.0;      // > 255%
  cfg.attacker_boost = 1e9;    // > 65535%
  cfg.global_manager = 0;
  noc::Packet pkt;
  encode_config(cfg, pkt);
  const auto decoded = decode_config(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_LE(decoded->victim_scale, 2.56);
  EXPECT_LE(decoded->attacker_boost, 655.36);
}

// Every accepted scale travels on the wire unclamped and nonzero; each
// rule of TrojanConfig::validate() (its adaptation included) names the
// out-of-range member.
TEST(TrojanConfig, ValidateKeepsScalesInsideTheWireFields) {
  for (const double scale : {0.005, 0.333, 1.0}) {
    for (const double boost : {1.0, 8.0, 655.35}) {
      TrojanConfig cfg;
      cfg.victim_scale = scale;
      cfg.attacker_boost = boost;
      EXPECT_NO_THROW(cfg.validate()) << scale << " " << boost;
      noc::Packet pkt;
      encode_config(cfg, pkt);
      const auto decoded = decode_config(pkt);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_GT(decoded->victim_scale, 0.0);
      EXPECT_NEAR(decoded->victim_scale, scale, 0.005);
      EXPECT_NEAR(decoded->attacker_boost, boost, 0.005);
    }
  }

  const struct {
    const char* member;
    void (*mutate)(TrojanConfig&);
  } illegal[] = {
      {"victim_scale", [](TrojanConfig& t) { t.victim_scale = 0.004; }},
      {"victim_scale", [](TrojanConfig& t) { t.victim_scale = 0.0; }},
      {"victim_scale", [](TrojanConfig& t) { t.victim_scale = 1.5; }},
      {"attacker_boost", [](TrojanConfig& t) { t.attacker_boost = 700.0; }},
      {"attacker_boost", [](TrojanConfig& t) { t.attacker_boost = 0.5; }},
      {"adapt.alpha", [](TrojanConfig& t) { t.adapt.alpha = 0.0; }},
      {"adapt.alpha", [](TrojanConfig& t) { t.adapt.alpha = 1.5; }},
      {"adapt.backoff_ratio",
       [](TrojanConfig& t) { t.adapt.backoff_ratio = 1.0; }},
      {"adapt.max_on_epochs",
       [](TrojanConfig& t) { t.adapt.max_on_epochs = 0; }},
      {"adapt.hold_off_epochs",
       [](TrojanConfig& t) { t.adapt.hold_off_epochs = 0; }},
  };
  for (const auto& bad : illegal) {
    TrojanConfig cfg;
    bad.mutate(cfg);
    try {
      cfg.validate();
      ADD_FAILURE() << bad.member << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(bad.member, 0), 0U) << e.what();
    }
  }
}

}  // namespace
}  // namespace htpb::core
