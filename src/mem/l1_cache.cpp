#include "mem/l1_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/snapshot.hpp"

namespace htpb::mem {

void L1Cache::access(std::uint64_t line_addr, bool write) {
  if (mshrs_.contains(line_addr)) {
    ++stats_.mshr_coalesced;
    return;
  }
  auto* line = cache_.find(line_addr);
  if (line != nullptr) {
    const MesiState st = line->data.state;
    if (!write || st == MesiState::kModified || st == MesiState::kExclusive) {
      ++stats_.hits;
      if (write) line->data.state = MesiState::kModified;
      return;
    }
    // Write hit on a Shared line: upgrade (GetM) required.
    ++stats_.upgrades;
    send_request(line_addr, /*write=*/true);
    return;
  }
  ++stats_.misses;
  send_request(line_addr, write);
}

void L1Cache::send_request(std::uint64_t line_addr, bool write) {
  if (static_cast<int>(mshrs_.size()) >= cfg_.mshrs) {
    ++stats_.mshr_full_drops;
    return;
  }
  const NodeId home = home_of(line_addr, net_->geometry().node_count());
  auto pkt = net_->make_packet(node_, home,
                               write ? noc::PacketType::kMemWriteReq
                                     : noc::PacketType::kMemReadReq);
  pkt->tag = line_addr;
  pkt->src_app = core_ != nullptr ? core_->app() : kInvalidApp;
  mshrs_[line_addr] = Mshr{write, net_->engine().now(), false, 0};
  net_->send(std::move(pkt));
}

void L1Cache::on_packet(const noc::Packet& pkt) {
  switch (pkt.type) {
    case noc::PacketType::kMemReply:
      handle_reply(pkt);
      break;
    case noc::PacketType::kCohInvalidate:
      handle_invalidate(pkt);
      break;
    default:
      break;
  }
}

void L1Cache::handle_reply(const noc::Packet& pkt) {
  ++stats_.replies;
  const std::uint64_t addr = pkt.tag;
  const std::uint32_t gen = reply_gen(pkt.payload);
  bool poisoned = false;
  const auto it = mshrs_.find(addr);
  if (it != mshrs_.end()) {
    const double round_trip_ns =
        static_cast<double>(net_->engine().now() - it->second.issued);
    if (core_ != nullptr) core_->observe_latency(round_trip_ns);
    poisoned = it->second.inval_pending && it->second.inval_gen >= gen;
    mshrs_.erase(it);
  }
  if (poisoned) {
    // An invalidation that logically follows this grant already arrived;
    // the copy is dead on arrival (it was acked when the inv landed).
    cache_.invalidate(addr);
    return;
  }
  // Install the granted line, evicting the LRU victim if needed.
  SetAssocCache<LineData>::Line evicted;
  bool did_evict = false;
  auto& line = cache_.allocate(addr, &evicted, &did_evict);
  line.data.state = reply_grant(pkt.payload) == kGrantExclusive
                        ? MesiState::kModified
                        : MesiState::kShared;
  line.data.gen = gen;
  if (did_evict && evicted.data.state == MesiState::kModified) {
    // Dirty victim: write back to its home bank (5-flit data packet).
    ++stats_.writebacks;
    const NodeId home = home_of(evicted.addr, net_->geometry().node_count());
    auto wb = net_->make_packet(node_, home, noc::PacketType::kWriteback);
    wb->tag = evicted.addr;
    wb->src_app = core_ != nullptr ? core_->app() : kInvalidApp;
    net_->send(std::move(wb));
  }
}

void L1Cache::handle_invalidate(const noc::Packet& pkt) {
  ++stats_.invalidations;
  const std::uint64_t addr = pkt.tag;
  const std::uint32_t inv_gen = pkt.payload;

  // Record against an in-flight fill: if the grant being filled is of the
  // same or older generation, it must not survive installation.
  const auto mshr = mshrs_.find(addr);
  if (mshr != mshrs_.end()) {
    mshr->second.inval_pending = true;
    if (inv_gen > mshr->second.inval_gen) mshr->second.inval_gen = inv_gen;
  }

  const auto* line = cache_.peek(addr);
  bool dirty = false;
  if (line != nullptr && inv_gen >= line->data.gen) {
    dirty = line->data.state == MesiState::kModified;
    cache_.invalidate(addr);
  }
  // Dirty lines answer the recall with a data writeback; clean, stale or
  // absent copies answer with a 1-flit ack. Either satisfies the home.
  const NodeId home = pkt.src;
  auto reply = net_->make_packet(
      node_, home,
      dirty ? noc::PacketType::kWriteback : noc::PacketType::kCohAck);
  reply->tag = addr;
  reply->src_app = core_ != nullptr ? core_->app() : kInvalidApp;
  if (dirty) ++stats_.writebacks;
  net_->send(std::move(reply));
}

json::Value L1Cache::save_state() const {
  json::Object o;
  json::Array lines;
  for (std::size_t i = 0; i < cache_.capacity_lines(); ++i) {
    const auto& line = cache_.line_at(i);
    if (!line.valid) continue;
    json::Array a;
    a.push_back(common::ju64(i));
    a.push_back(common::ju64(line.addr));
    a.push_back(common::ju64(line.lru));
    a.push_back(json::Value(static_cast<long long>(
        static_cast<std::uint8_t>(line.data.state))));
    a.push_back(json::Value(static_cast<long long>(line.data.gen)));
    lines.push_back(json::Value(std::move(a)));
  }
  o["lines"] = json::Value(std::move(lines));
  o["clock"] = common::ju64(cache_.lru_clock());
  std::vector<std::uint64_t> addrs;
  addrs.reserve(mshrs_.size());
  // htpb-lint: allow(unordered-iter) keys are collected then sorted before use
  for (const auto& [addr, mshr] : mshrs_) addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  json::Array mshrs;
  for (const std::uint64_t addr : addrs) {
    const Mshr& m = mshrs_.at(addr);
    json::Array a;
    a.push_back(common::ju64(addr));
    a.push_back(json::Value(m.write));
    a.push_back(common::ju64(m.issued));
    a.push_back(json::Value(m.inval_pending));
    a.push_back(json::Value(static_cast<long long>(m.inval_gen)));
    mshrs.push_back(json::Value(std::move(a)));
  }
  o["mshrs"] = json::Value(std::move(mshrs));
  o["stats"] = common::to_snapshot(stats_);
  return json::Value(std::move(o));
}

void L1Cache::load_state(const json::Value& v) {
  const json::Object& o = v.as_object();
  cache_.clear();
  for (const json::Value& lv : o.at("lines").as_array()) {
    const json::Array& a = lv.as_array();
    auto& line = cache_.line_at(static_cast<std::size_t>(common::pu64(a.at(0))));
    line.addr = common::pu64(a.at(1));
    line.valid = true;
    line.lru = common::pu64(a.at(2));
    line.data.state = static_cast<MesiState>(a.at(3).as_int());
    line.data.gen = static_cast<std::uint32_t>(a.at(4).as_int());
  }
  cache_.set_lru_clock(common::pu64(o.at("clock")));
  mshrs_.clear();
  for (const json::Value& mv : o.at("mshrs").as_array()) {
    const json::Array& a = mv.as_array();
    Mshr m;
    m.write = a.at(1).as_bool();
    m.issued = common::pu64(a.at(2));
    m.inval_pending = a.at(3).as_bool();
    m.inval_gen = static_cast<std::uint32_t>(a.at(4).as_int());
    mshrs_.emplace(common::pu64(a.at(0)), m);
  }
  common::from_snapshot(o.at("stats"), stats_);
}

}  // namespace htpb::mem
