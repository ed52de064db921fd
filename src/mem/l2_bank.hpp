// Distributed shared L2: one bank (slice) per node, with an inline MESI
// directory. Serves GetS/GetM from L1s, recalls dirty lines, invalidates
// sharers on ownership transfers, and models main-memory fills with a
// fixed latency (Table I: 200 cycles).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/coherence.hpp"
#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace htpb::mem {

struct L2Config {
  /// Table I: 64 KB slice per node with 64 B lines => 1024 lines; 8-way.
  std::size_t sets = 128;
  int ways = 8;
  /// Main-memory access latency in cycles (Table I: 200).
  Cycle mem_latency = 200;

  friend bool operator==(const L2Config&, const L2Config&) = default;
};

struct L2Stats {
  std::uint64_t gets = 0;
  std::uint64_t getm = 0;
  std::uint64_t hits = 0;
  std::uint64_t memory_fetches = 0;
  std::uint64_t recalls = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t eviction_writebacks = 0;
  std::uint64_t replies_sent = 0;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("gets", s.gets);
    f("getm", s.getm);
    f("hits", s.hits);
    f("memory_fetches", s.memory_fetches);
    f("recalls", s.recalls);
    f("invalidations_sent", s.invalidations_sent);
    f("eviction_writebacks", s.eviction_writebacks);
    f("replies_sent", s.replies_sent);
  }
};

class L2Bank {
 public:
  L2Bank(NodeId node, const L2Config& cfg, noc::MeshNetwork* net,
         sim::Engine* engine)
      : node_(node), cfg_(cfg), net_(net), engine_(engine),
        cache_(cfg.sets, cfg.ways) {
    // Memory-fetch completions are scheduled as event descriptors so a
    // checkpoint can capture them; the bank answers for its own node.
    engine_->set_handler(
        sim::EventKind::kMemFetchDone, static_cast<std::int32_t>(node_),
        [this](const sim::EventDesc& d) { on_fetch_done(d.a); });
  }

  /// Network-side input: kMemReadReq, kMemWriteReq, kWriteback, kCohAck.
  void on_packet(const noc::Packet& pkt);

  [[nodiscard]] const L2Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::size_t busy_lines() const noexcept { return busy_.size(); }

  /// Checkpointing: directory lines (slot order), LRU clock, busy
  /// transactions (sorted by address) and stats. Pending fetch-done events
  /// live in the engine's queue, not here.
  [[nodiscard]] json::Value save_state() const;
  void load_state(const json::Value& v);

  /// A queued coherence request, as a snapshot record.
  struct Request {
    NodeId requester = kInvalidNode;
    bool write = false;
    AppId app = kInvalidApp;

    template <class S, class F>
    static void fields(S& s, F&& f) {
      f("requester", s.requester);
      f("write", s.write);
      f("app", s.app);
    }
  };

 private:
  enum class DirState : std::uint8_t { kShared, kModified };

  struct DirEntry {
    DirState state = DirState::kShared;
    NodeId owner = kInvalidNode;
    std::vector<NodeId> sharers;
    /// Generation counter, bumped on every exclusive grant; stamped into
    /// replies and invalidations so L1s can order them (see coherence.hpp).
    std::uint32_t gen = 0;
  };

  /// Per-line coherence transaction (recall or invalidation round, or an
  /// outstanding memory fetch). Requests arriving for a busy line queue up.
  struct Txn {
    Request current;
    int acks_needed = 0;
    bool fetching = false;
    /// Arrival order; only appended to and moved whole.
    std::vector<Request> waiting;
  };

  void handle_request(std::uint64_t addr, const Request& req);
  void start_request(std::uint64_t addr, const Request& req);
  void serve_from_directory(std::uint64_t addr,
                            SetAssocCache<DirEntry>::Line& line,
                            const Request& req);
  void on_fetch_done(std::uint64_t addr);
  void on_ack(std::uint64_t addr);
  void handle_eviction_writeback(const noc::Packet& pkt);
  /// Pops the busy transaction's current request, re-serves it against the
  /// (now up-to-date) directory line, and drains the waiting queue.
  void serve_busy_line_current(std::uint64_t addr,
                               SetAssocCache<DirEntry>::Line& line);
  void send_reply(const Request& req, std::uint64_t addr, bool exclusive,
                  std::uint32_t gen);
  void send_invalidate(NodeId target, std::uint64_t addr,
                       std::uint32_t gen);

  NodeId node_;   // snapshot-exempt: construction wiring (tile identity)
  L2Config cfg_;  // snapshot-exempt: construction config, immutable
  noc::MeshNetwork* net_;  // snapshot-exempt: non-owning wiring, re-attached by construction
  sim::Engine* engine_;    // snapshot-exempt: non-owning wiring, re-attached by construction
  SetAssocCache<DirEntry> cache_;
  std::unordered_map<std::uint64_t, Txn> busy_;
  L2Stats stats_;
};

}  // namespace htpb::mem
