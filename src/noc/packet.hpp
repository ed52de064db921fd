// Packet and flit formats.
//
// The paper's packet frame (Fig. 1) has a 16-bit source, 16-bit destination,
// 32-bit type word and 32-bit payload, plus an optional OPTIONS field. With
// Table I's 72-bit flits this gives: 1-flit meta packets (coherence/control
// without data), 2-flit command packets (power requests / Trojan
// configuration, which carry the type word and payload) and 5-flit data
// packets (cache-line transfers).
//
// Ownership: packets are shared by all of their flits through PacketPtr, an
// intrusive reference-counted handle. A simulation run is single-threaded
// by design (the two-phase router update; parallelism is across campaigns),
// so the count is a plain integer -- copying a flit costs one increment,
// not an atomic RMW like the former std::shared_ptr did. Every handled
// packet comes from a PacketPool (one per MeshNetwork) and returns to it
// when the last handle drops, so steady-state traffic allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace htpb::noc {

enum class PacketType : std::uint32_t {
  kGeneric = 0,
  /// Power budget request: payload = requested power in milliwatts (paper
  /// Fig. 1a, POWER_REQ).
  kPowerRequest = 1,
  /// Global manager's reply: payload = granted power in milliwatts.
  kPowerGrant = 2,
  /// Hardware-Trojan configuration command (paper Fig. 1b, CONFIG_CMD).
  /// The type word's low bits carry the activation signal; options carry
  /// the global manager id and the attacker agents (see core/trojan_config).
  kConfigCmd = 3,
  /// Cache read miss request (GetS).
  kMemReadReq = 4,
  /// Cache write/upgrade miss request (GetM).
  kMemWriteReq = 5,
  /// Data reply carrying a cache line.
  kMemReply = 6,
  /// Coherence invalidation from a directory to a sharer.
  kCohInvalidate = 7,
  /// Invalidation acknowledgement.
  kCohAck = 8,
  /// Dirty-line writeback to the directory / memory.
  kWriteback = 9,
};

[[nodiscard]] const char* to_string(PacketType t) noexcept;

/// Virtual channels are partitioned into two classes to break
/// request/reply protocol deadlock: class 0 carries requests and control
/// traffic, class 1 carries replies/acknowledgements.
[[nodiscard]] constexpr int vc_class_of(PacketType t) noexcept {
  switch (t) {
    case PacketType::kPowerGrant:
    case PacketType::kMemReply:
    case PacketType::kCohAck:
      return 1;
    default:
      return 0;
  }
}

struct Packet;

namespace detail {
/// Shared between a PacketPool and the packets it issued. Outlives the
/// pool while packets are still in flight (e.g. a delivery event captured
/// in the engine after the network was torn down), so a late release can
/// never touch freed pool memory.
struct PoolCore {
  std::vector<Packet*> free;
  /// Every packet currently held by handles, unordered (swap-remove on
  /// dispose; each packet stores its slot in ctrl.live_index). This is
  /// the checkpoint layer's live-packet table: a snapshot enumerates it,
  /// sorts by packet id, and writes every in-flight packet exactly once.
  std::vector<Packet*> live_list;
  std::size_t live = 0;
  bool alive = true;
};
}  // namespace detail

/// Intrusive-refcount bookkeeping inside a Packet. Copying a Packet value
/// clones the payload but never the identity, so the copy starts unowned.
struct PacketControl {
  std::uint32_t refs = 0;
  std::uint32_t live_index = 0;  ///< slot in the pool's live-packet table
  detail::PoolCore* pool = nullptr;

  PacketControl() noexcept = default;
  PacketControl(const PacketControl&) noexcept {}
  PacketControl& operator=(const PacketControl&) noexcept { return *this; }
};

struct Packet {
  PacketId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PacketType type = PacketType::kGeneric;
  /// 32-bit payload word (power request value for kPowerRequest).
  std::uint32_t payload = 0;
  /// Optional OPTIONS words (attacker list for kConfigCmd, address bits
  /// for memory traffic, ...).
  std::vector<std::uint32_t> options;
  /// Number of flits on the wire, set from packet type at send time.
  int size_flits = 1;
  /// Opaque correlation tag for the memory subsystem (MSHR matching).
  std::uint64_t tag = 0;
  /// Application that generated the packet (bookkeeping for metrics).
  AppId src_app = kInvalidApp;

  Cycle birth = 0;
  Cycle delivered = 0;

  /// Set by a hardware Trojan when it shrinks a victim's payload in flight.
  bool tampered = false;
  /// Set by a hardware Trojan when it inflates an accomplice's payload.
  bool boosted = false;
  std::uint32_t original_payload = 0;

  /// Managed by PacketPtr / PacketPool; not part of the packet's value,
  /// so the field list leaves it out.
  PacketControl ctrl;

  [[nodiscard]] std::string to_string() const;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f("id", s.id);
    f("src", s.src);
    f("dst", s.dst);
    f("type", s.type);
    f("payload", s.payload);
    f("options", s.options);
    f("size_flits", s.size_flits);
    f("tag", s.tag);
    f("src_app", s.src_app);
    f("birth", s.birth);
    f("delivered", s.delivered);
    f("tampered", s.tampered);
    f("boosted", s.boosted);
    f("original_payload", s.original_payload);
  }
};

/// Shared-ownership handle to a Packet (single-threaded refcount; see the
/// file comment). Drop-in for the former std::shared_ptr<Packet> uses.
class PacketPtr {
 public:
  PacketPtr() noexcept = default;
  PacketPtr(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)
  PacketPtr(const PacketPtr& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) ++p_->ctrl.refs;
  }
  PacketPtr(PacketPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  PacketPtr& operator=(const PacketPtr& o) noexcept {
    if (this != &o) {
      Packet* keep = o.p_;
      if (keep != nullptr) ++keep->ctrl.refs;
      release();
      p_ = keep;
    }
    return *this;
  }
  PacketPtr& operator=(PacketPtr&& o) noexcept {
    if (this != &o) {
      release();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  ~PacketPtr() { release(); }

  /// Wraps a packet whose refcount already accounts for this handle.
  [[nodiscard]] static PacketPtr adopt(Packet* p) noexcept {
    PacketPtr h;
    h.p_ = p;
    return h;
  }

  void reset() noexcept { release(); }
  [[nodiscard]] Packet* get() const noexcept { return p_; }
  [[nodiscard]] Packet& operator*() const noexcept { return *p_; }
  [[nodiscard]] Packet* operator->() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  friend bool operator==(const PacketPtr& a, const PacketPtr& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator==(const PacketPtr& a, std::nullptr_t) noexcept {
    return a.p_ == nullptr;
  }

 private:
  void release() noexcept {
    Packet* p = p_;
    p_ = nullptr;
    if (p != nullptr && --p->ctrl.refs == 0) dispose(p);
  }
  static void dispose(Packet* p) noexcept;  // packet.cpp: back to the pool

  Packet* p_ = nullptr;
};

/// Recycling arena for packets: `allocate` pops a free-listed packet (its
/// options vector keeps its capacity) or news one; the last PacketPtr
/// returns it here. One pool per MeshNetwork.
class PacketPool {
 public:
  PacketPool() : core_(new detail::PoolCore) {}
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  [[nodiscard]] PacketPtr allocate();

  /// Packets currently held by handles (diagnostics / leak tests).
  [[nodiscard]] std::size_t live() const noexcept { return core_->live; }
  /// Packets parked on the free list.
  [[nodiscard]] std::size_t pooled() const noexcept {
    return core_->free.size();
  }

  /// The live-packet table: every packet currently held by a handle, in
  /// no particular order (checkpoint writers sort by id). Valid only
  /// while the pool is alive.
  [[nodiscard]] const std::vector<Packet*>& live_packets() const noexcept {
    return core_->live_list;
  }

 private:
  detail::PoolCore* core_;
};

/// One flit of a packet. All flits of a packet share ownership of the
/// Packet object; only the head flit triggers route computation and
/// inspection, only the tail flit triggers delivery.
struct Flit {
  PacketPtr pkt;
  std::uint16_t index = 0;
  /// Derived from index and pkt->size_flits; flit_from_json recomputes
  /// them rather than storing them.
  bool is_head = false;
  bool is_tail = false;
  /// VC assigned on the current link (rewritten hop by hop).
  std::int8_t vc = -1;
};

/// Splits a packet into its flit sequence, written into a caller-owned
/// buffer (cleared first) so a hot caller can reuse one vector's capacity
/// for every packet it serializes.
void make_flits_into(const PacketPtr& pkt, std::vector<Flit>& out);

// ---------------------------------------------------------------------
// Checkpointing (ARCHITECTURE.md §11). A snapshot stores every live
// packet's value fields once (keyed by its stable id, through the
// snapshot codec and Packet::fields) and every flit as
// an {id, index, vc} reference; restore allocates fresh packets, builds
// an id -> handle map, and resolves flit references through it, so the
// shared-ownership graph (and thus the refcounts) re-emerges from the
// holders alone.
// ---------------------------------------------------------------------

/// Maps a saved packet id to the restored handle. Throws on unknown ids
/// (a corrupt snapshot).
using PacketResolver = std::function<PacketPtr(PacketId)>;

[[nodiscard]] json::Value flit_to_json(const Flit& f);
[[nodiscard]] Flit flit_from_json(const json::Value& v,
                                  const PacketResolver& resolve);

}  // namespace htpb::noc
