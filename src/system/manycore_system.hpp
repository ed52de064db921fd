// The integrated many-core chip: mesh NoC, tiles (cores + caches), the
// global power manager and the epoch-based budgeting protocol. This is
// the substrate the attack experiments run on; it knows nothing about
// Trojans (those are injected from core/ via the router inspector hook).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "power/global_manager.hpp"
#include "sim/engine.hpp"
#include "system/system_config.hpp"
#include "system/tile.hpp"
#include "workload/application.hpp"

namespace htpb::system {

/// Global test hook: arms the in-place snapshot round trip performed by
/// ManyCoreSystem::run_epochs (see its comment). Off by default; the
/// scenario snapshot property test switches it on to exercise every
/// registered scenario kind through the save/load path.
void set_snapshot_self_test(bool on) noexcept;
[[nodiscard]] bool snapshot_self_test() noexcept;

class ManyCoreSystem : public sim::Tickable {
 public:
  /// Builds the chip and maps the applications' threads (the `apps`
  /// vector must already have its `cores` filled in by a mapper, or pass
  /// it through `workload::map_threads_round_robin` first).
  ManyCoreSystem(SystemConfig cfg, std::vector<workload::Application> apps);

  ManyCoreSystem(const ManyCoreSystem&) = delete;
  ManyCoreSystem& operator=(const ManyCoreSystem&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] noc::MeshNetwork& network() noexcept { return *net_; }
  [[nodiscard]] power::GlobalManager& gm() noexcept { return *gm_; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] NodeId gm_node() const noexcept { return gm_node_; }
  [[nodiscard]] const MeshGeometry& geometry() const noexcept {
    return net_->geometry();
  }
  [[nodiscard]] const std::vector<workload::Application>& apps() const noexcept {
    return apps_;
  }
  [[nodiscard]] cpu::CoreModel* core(NodeId node) noexcept {
    return tiles_[node].core.get();
  }
  [[nodiscard]] const cpu::CoreModel* core(NodeId node) const noexcept {
    return tiles_[node].core.get();
  }
  [[nodiscard]] mem::L1Cache* l1(NodeId node) noexcept {
    return tiles_[node].l1.get();
  }
  [[nodiscard]] mem::L2Bank* l2(NodeId node) noexcept {
    return tiles_[node].l2.get();
  }
  [[nodiscard]] std::uint64_t total_budget_mw() const noexcept {
    return budget_mw_;
  }
  [[nodiscard]] std::uint32_t floor_mw() const noexcept { return floor_mw_; }

  /// Payload of the most recent POWER_GRANT delivered to `node` (0 before
  /// the first grant lands). The adaptive Trojan agent's feedback tap.
  [[nodiscard]] std::uint32_t last_grant_mw(NodeId node) const noexcept {
    return tiles_[node].last_grant_mw;
  }

  /// Ticks every core (registered with the engine after the network, so
  /// cores see this cycle's deliveries).
  void tick(Cycle now) override;

  /// Runs `epochs` budgeting epochs (the epoch driver self-schedules).
  /// Under Horizon::kLastWindow the run stops on the cycle after the last
  /// kSystemAllocate those epochs would fire (the whole span when none
  /// fires), and throws std::logic_error if the manager's history does
  /// not close its last window on exactly that cycle.
  /// When the snapshot self-test hook (set_snapshot_self_test) is armed
  /// and `epochs` >= 2, the run is interrupted at two interior cuts (one
  /// near an epoch boundary, one mid-epoch) for an in-place
  /// save -> dump -> parse -> load round trip; a correct snapshot layer
  /// makes this a no-op, which the scenario property test locks in.
  void run_epochs(int epochs, Horizon horizon = Horizon::kFull);

  /// Checkpointing: engine clock + pending events, the full NoC, every
  /// tile (core/L1/L2 + grant bookkeeping), the global manager and the
  /// epoch/measurement drivers. Restore into a system built from the
  /// identical SystemConfig + mapped applications; wiring (handlers,
  /// inspectors, neighbour tables) is reconstructed, never serialized.
  [[nodiscard]] json::Value save_state() const;
  void load_state(const json::Value& v);

  /// Marks the start of the measurement window: snapshots per-core
  /// instruction counters and the infection-rate history.
  void reset_measurement();

  /// Theta_k (paper Def. 1): the application's aggregate instructions per
  /// nanosecond over the measurement window.
  [[nodiscard]] double app_throughput(AppId app) const;

  /// Mean infection rate at the manager over the measurement window.
  [[nodiscard]] double measured_infection_rate() const;

  /// Phi_k (paper Def. 5): mean over the app's cores of the per-core
  /// frequency sensitivity phi (Def. 4), using each core's live IPC model.
  [[nodiscard]] double app_sensitivity(AppId app) const;

  /// phi(j, z) of Def. 4 for one core.
  [[nodiscard]] double core_sensitivity(NodeId node) const;

  /// The DVFS level the core would ask power for (largest useful level).
  [[nodiscard]] int desired_level(const cpu::CoreModel& core) const;

 private:
  void build_tiles();
  void dispatch(NodeId node, const noc::Packet& pkt);
  void schedule_next_epoch();
  void begin_epoch();
  void refresh_miss_rates();
  /// The cycle of the last kSystemAllocate due in [now, end), if any.
  [[nodiscard]] std::optional<Cycle> last_allocate_before(Cycle end) const;

  SystemConfig cfg_;  // snapshot-exempt: construction config, immutable
  sim::Engine engine_;
  std::unique_ptr<noc::MeshNetwork> net_;
  std::vector<workload::Application> apps_;  // snapshot-exempt: workload spec, fixed for the run
  std::vector<Tile> tiles_;
  // The tiles' cores in ascending node order, so tick() keeps the L1
  // access and NI injection order of a scan over tiles_.
  std::vector<cpu::CoreModel*> cores_;  // snapshot-exempt: construction wiring into tiles_
  std::unique_ptr<power::GlobalManager> gm_;
  NodeId gm_node_ = kInvalidNode;   // snapshot-exempt: derived from cfg_ at construction
  std::uint64_t budget_mw_ = 0;     // snapshot-exempt: derived from cfg_ at construction
  std::uint32_t floor_mw_ = 0;      // snapshot-exempt: derived from cfg_ at construction
  Cycle next_epoch_start_ = 0;

  // Measurement window state.
  Cycle measure_start_ = 0;
  std::vector<double> instr_snapshot_;
  std::size_t infection_history_mark_ = 0;
};

}  // namespace htpb::system
