#include "mem/l2_bank.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/snapshot.hpp"

namespace htpb::mem {

namespace {
void add_sharer(std::vector<NodeId>& sharers, NodeId n) {
  if (std::find(sharers.begin(), sharers.end(), n) == sharers.end()) {
    sharers.push_back(n);
  }
}
void remove_sharer(std::vector<NodeId>& sharers, NodeId n) {
  sharers.erase(std::remove(sharers.begin(), sharers.end(), n), sharers.end());
}
}  // namespace

void L2Bank::on_packet(const noc::Packet& pkt) {
  switch (pkt.type) {
    case noc::PacketType::kMemReadReq:
      ++stats_.gets;
      handle_request(pkt.tag, Request{pkt.src, false, pkt.src_app});
      break;
    case noc::PacketType::kMemWriteReq:
      ++stats_.getm;
      handle_request(pkt.tag, Request{pkt.src, true, pkt.src_app});
      break;
    case noc::PacketType::kWriteback: {
      const auto it = busy_.find(pkt.tag);
      if (it != busy_.end() && it->second.acks_needed > 0) {
        on_ack(pkt.tag);  // recall answered with data
      } else {
        handle_eviction_writeback(pkt);
      }
      break;
    }
    case noc::PacketType::kCohAck:
      on_ack(pkt.tag);
      break;
    default:
      break;
  }
}

void L2Bank::handle_request(std::uint64_t addr, const Request& req) {
  const auto it = busy_.find(addr);
  if (it != busy_.end()) {
    it->second.waiting.push_back(req);
    return;
  }
  start_request(addr, req);
}

void L2Bank::start_request(std::uint64_t addr, const Request& req) {
  auto* line = cache_.find(addr);
  if (line == nullptr) {
    // L2 miss: fetch from main memory (fixed-latency event; DESIGN.md
    // documents this substitution for dedicated memory-controller nodes).
    ++stats_.memory_fetches;
    Txn txn;
    txn.current = req;
    txn.fetching = true;
    busy_.emplace(addr, std::move(txn));
    engine_->schedule_desc_in(
        cfg_.mem_latency,
        sim::EventDesc{sim::EventKind::kMemFetchDone,
                       static_cast<std::int32_t>(node_), addr, 0});
    return;
  }
  ++stats_.hits;
  serve_from_directory(addr, *line, req);
}

void L2Bank::serve_from_directory(std::uint64_t addr,
                                  SetAssocCache<DirEntry>::Line& line,
                                  const Request& req) {
  DirEntry& dir = line.data;
  if (dir.state == DirState::kModified && dir.owner != req.requester &&
      dir.owner != kInvalidNode) {
    // Dirty at another core: recall the line first.
    ++stats_.recalls;
    Txn txn;
    txn.current = req;
    txn.acks_needed = 1;
    busy_.emplace(addr, std::move(txn));
    send_invalidate(dir.owner, addr, dir.gen);
    dir.owner = kInvalidNode;
    dir.state = DirState::kShared;
    dir.sharers.clear();
    return;
  }
  if (!req.write) {
    add_sharer(dir.sharers, req.requester);
    if (dir.state == DirState::kModified && dir.owner == req.requester) {
      // Owner re-reading its own dirty line.
      send_reply(req, addr, /*exclusive=*/true, dir.gen);
      return;
    }
    dir.state = DirState::kShared;
    send_reply(req, addr, /*exclusive=*/false, dir.gen);
    return;
  }
  // GetM: invalidate all other sharers, then grant ownership.
  std::vector<NodeId> to_invalidate;
  for (const NodeId s : dir.sharers) {
    if (s != req.requester) to_invalidate.push_back(s);
  }
  if (to_invalidate.empty()) {
    dir.state = DirState::kModified;
    dir.owner = req.requester;
    dir.sharers.clear();
    dir.sharers.push_back(req.requester);
    ++dir.gen;  // new write epoch
    send_reply(req, addr, /*exclusive=*/true, dir.gen);
    return;
  }
  Txn txn;
  txn.current = req;
  txn.acks_needed = static_cast<int>(to_invalidate.size());
  busy_.emplace(addr, std::move(txn));
  for (const NodeId s : to_invalidate) send_invalidate(s, addr, dir.gen);
  dir.sharers.clear();
}

void L2Bank::on_fetch_done(std::uint64_t addr) {
  const auto it = busy_.find(addr);
  assert(it != busy_.end() && it->second.fetching);
  it->second.fetching = false;

  // Install the line; victims with live L1 copies get fire-and-forget
  // invalidations (their acks, if any, find no transaction and are
  // dropped -- a documented simplification).
  SetAssocCache<DirEntry>::Line evicted;
  bool did_evict = false;
  auto& line = cache_.allocate(addr, &evicted, &did_evict,
                               [this](const SetAssocCache<DirEntry>::Line& l) {
                                 return !busy_.contains(l.addr);
                               });
  if (did_evict) {
    ++stats_.eviction_writebacks;
    for (const NodeId s : evicted.data.sharers) {
      ++stats_.invalidations_sent;
      send_invalidate(s, evicted.addr, evicted.data.gen);
    }
  }
  line.data = DirEntry{};
  serve_busy_line_current(addr, line);
}

void L2Bank::on_ack(std::uint64_t addr) {
  const auto it = busy_.find(addr);
  if (it == busy_.end()) return;  // stale ack from a fire-and-forget inv
  Txn& txn = it->second;
  if (txn.acks_needed == 0) return;
  if (--txn.acks_needed > 0) return;
  auto* line = cache_.find(addr);
  if (line == nullptr) {
    // The line was evicted while the transaction was in flight (possible
    // only via the fire-and-forget path); restart through memory.
    const Request req = txn.current;
    auto waiting = std::move(txn.waiting);
    busy_.erase(it);
    start_request(addr, req);
    auto again = busy_.find(addr);
    if (again != busy_.end()) {
      for (auto& w : waiting) again->second.waiting.push_back(w);
    } else {
      for (auto& w : waiting) handle_request(addr, w);
    }
    return;
  }
  serve_busy_line_current(addr, *line);
}

void L2Bank::handle_eviction_writeback(const noc::Packet& pkt) {
  auto* line = cache_.find(pkt.tag);
  if (line == nullptr) return;  // line already evicted from L2
  DirEntry& dir = line->data;
  if (dir.state == DirState::kModified && dir.owner == pkt.src) {
    dir.state = DirState::kShared;
    dir.owner = kInvalidNode;
  }
  remove_sharer(dir.sharers, pkt.src);
}

void L2Bank::serve_busy_line_current(std::uint64_t addr,
                                     SetAssocCache<DirEntry>::Line& line) {
  const auto it = busy_.find(addr);
  assert(it != busy_.end());
  const Request req = it->second.current;
  auto waiting = std::move(it->second.waiting);
  busy_.erase(it);
  serve_from_directory(addr, line, req);
  // serve_from_directory may have opened a follow-up transaction (e.g. a
  // GetM that still needs invalidation acks); park the waiters behind it,
  // otherwise replay them in arrival order.
  const auto again = busy_.find(addr);
  if (again != busy_.end()) {
    for (auto& w : waiting) again->second.waiting.push_back(w);
  } else {
    for (auto& w : waiting) handle_request(addr, w);
  }
}

void L2Bank::send_reply(const Request& req, std::uint64_t addr,
                        bool exclusive, std::uint32_t gen) {
  ++stats_.replies_sent;
  auto pkt = net_->make_packet(node_, req.requester,
                               noc::PacketType::kMemReply,
                               reply_payload(exclusive, gen));
  pkt->tag = addr;
  pkt->src_app = req.app;
  net_->send(std::move(pkt));
}

void L2Bank::send_invalidate(NodeId target, std::uint64_t addr,
                             std::uint32_t gen) {
  auto pkt = net_->make_packet(node_, target, noc::PacketType::kCohInvalidate,
                               gen);
  pkt->tag = addr;
  net_->send(std::move(pkt));
}

json::Value L2Bank::save_state() const {
  json::Object o;
  json::Array lines;
  for (std::size_t i = 0; i < cache_.capacity_lines(); ++i) {
    const auto& line = cache_.line_at(i);
    if (!line.valid) continue;
    json::Object lo;
    lo["slot"] = common::ju64(i);
    lo["addr"] = common::ju64(line.addr);
    lo["lru"] = common::ju64(line.lru);
    lo["state"] = json::Value(static_cast<long long>(
        static_cast<std::uint8_t>(line.data.state)));
    lo["owner"] = json::Value(static_cast<long long>(line.data.owner));
    json::Array sharers;
    for (const NodeId s : line.data.sharers) {
      sharers.push_back(json::Value(static_cast<long long>(s)));
    }
    lo["sharers"] = json::Value(std::move(sharers));
    lo["gen"] = json::Value(static_cast<long long>(line.data.gen));
    lines.push_back(json::Value(std::move(lo)));
  }
  o["lines"] = json::Value(std::move(lines));
  o["clock"] = common::ju64(cache_.lru_clock());
  std::vector<std::uint64_t> addrs;
  addrs.reserve(busy_.size());
  // htpb-lint: allow(unordered-iter) keys are collected then sorted before use
  for (const auto& [addr, txn] : busy_) addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  json::Array busy;
  for (const std::uint64_t addr : addrs) {
    const Txn& txn = busy_.at(addr);
    json::Object to;
    to["addr"] = common::ju64(addr);
    to["current"] = common::to_snapshot(txn.current);
    to["acks_needed"] = json::Value(static_cast<long long>(txn.acks_needed));
    to["fetching"] = json::Value(txn.fetching);
    json::Array waiting;
    for (const Request& w : txn.waiting) {
      waiting.push_back(common::to_snapshot(w));
    }
    to["waiting"] = json::Value(std::move(waiting));
    busy.push_back(json::Value(std::move(to)));
  }
  o["busy"] = json::Value(std::move(busy));
  o["stats"] = common::to_snapshot(stats_);
  return json::Value(std::move(o));
}

void L2Bank::load_state(const json::Value& v) {
  const json::Object& o = v.as_object();
  cache_.clear();
  for (const json::Value& lv : o.at("lines").as_array()) {
    const json::Object& lo = lv.as_object();
    auto& line = cache_.line_at(
        static_cast<std::size_t>(common::pu64(lo.at("slot"))));
    line.addr = common::pu64(lo.at("addr"));
    line.valid = true;
    line.lru = common::pu64(lo.at("lru"));
    line.data.state = static_cast<DirState>(lo.at("state").as_int());
    line.data.owner = static_cast<NodeId>(lo.at("owner").as_int());
    line.data.sharers.clear();
    for (const json::Value& sv : lo.at("sharers").as_array()) {
      line.data.sharers.push_back(static_cast<NodeId>(sv.as_int()));
    }
    line.data.gen = static_cast<std::uint32_t>(lo.at("gen").as_int());
  }
  cache_.set_lru_clock(common::pu64(o.at("clock")));
  busy_.clear();
  for (const json::Value& tv : o.at("busy").as_array()) {
    const json::Object& to = tv.as_object();
    Txn txn;
    common::from_snapshot(to.at("current"), txn.current);
    txn.acks_needed = static_cast<int>(to.at("acks_needed").as_int());
    txn.fetching = to.at("fetching").as_bool();
    for (const json::Value& wv : to.at("waiting").as_array()) {
      common::from_snapshot(wv, txn.waiting.emplace_back());
    }
    busy_.emplace(common::pu64(to.at("addr")), std::move(txn));
  }
  common::from_snapshot(o.at("stats"), stats_);
}

}  // namespace htpb::mem
