// Private per-core L1 cache with MSHRs. Misses and upgrades travel over
// the NoC to the line's home L2 bank; observed round trips feed the
// core's IPC model.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/types.hpp"
#include "cpu/core_model.hpp"
#include "mem/cache.hpp"
#include "mem/coherence.hpp"
#include "noc/network.hpp"

namespace htpb::mem {

struct L1Config {
  /// Table I: 16 KB two-way with 32 B lines => 256 sets.
  std::size_t sets = 256;
  int ways = 2;
  int mshrs = 8;

  friend bool operator==(const L1Config&, const L1Config&) = default;
};

struct L1Stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t mshr_coalesced = 0;
  std::uint64_t mshr_full_drops = 0;
  std::uint64_t replies = 0;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("hits", s.hits);
    f("misses", s.misses);
    f("upgrades", s.upgrades);
    f("writebacks", s.writebacks);
    f("invalidations", s.invalidations);
    f("mshr_coalesced", s.mshr_coalesced);
    f("mshr_full_drops", s.mshr_full_drops);
    f("replies", s.replies);
  }
};

class L1Cache {
 public:
  L1Cache(NodeId node, const L1Config& cfg, noc::MeshNetwork* net,
          cpu::CoreModel* core)
      : node_(node), cfg_(cfg), net_(net), core_(core),
        cache_(cfg.sets, cfg.ways) {}

  /// Core-side access (called from the core's address stream).
  void access(std::uint64_t line_addr, bool write);

  /// Network-side input: kMemReply and kCohInvalidate.
  void on_packet(const noc::Packet& pkt);

  [[nodiscard]] const L1Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] MesiState state_of(std::uint64_t line_addr) const {
    const auto* line = cache_.peek(line_addr);
    return line ? line->data.state : MesiState::kInvalid;
  }
  [[nodiscard]] std::size_t outstanding_misses() const noexcept {
    return mshrs_.size();
  }

  /// Checkpointing: cache lines (slot order), LRU clock, MSHRs (sorted by
  /// address) and stats. The network/core wiring is not captured.
  [[nodiscard]] json::Value save_state() const;
  void load_state(const json::Value& v);

 private:
  struct LineData {
    MesiState state = MesiState::kInvalid;
    std::uint32_t gen = 0;  // directory generation of this copy
  };

  struct Mshr {
    bool write = false;
    Cycle issued = 0;
    /// Highest generation of any invalidation that arrived while the fill
    /// was in flight; if it covers the reply's generation the freshly
    /// installed line is dropped immediately (the invalidation logically
    /// follows the grant but overtook it on the unordered NoC).
    bool inval_pending = false;
    std::uint32_t inval_gen = 0;
  };

  void send_request(std::uint64_t line_addr, bool write);
  void handle_reply(const noc::Packet& pkt);
  void handle_invalidate(const noc::Packet& pkt);

  NodeId node_;   // snapshot-exempt: construction wiring (tile identity)
  L1Config cfg_;  // snapshot-exempt: construction config, immutable
  noc::MeshNetwork* net_;   // snapshot-exempt: non-owning wiring, re-attached by construction
  cpu::CoreModel* core_;    // snapshot-exempt: non-owning wiring, re-attached by construction
  SetAssocCache<LineData> cache_;
  std::unordered_map<std::uint64_t, Mshr> mshrs_;
  L1Stats stats_;
};

}  // namespace htpb::mem
