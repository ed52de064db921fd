// One tile's core: retires instructions continuously at IPC(f)*f and
// emits L1 accesses at the thread's miss rate. The memory side is wired
// up by the tile; the core only produces an address stream of "L1
// accesses to issue this cycle".
#pragma once

#include <cstdint>
#include <functional>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "cpu/frequency.hpp"
#include "cpu/ipc_model.hpp"

namespace htpb::cpu {

/// Callback the tile installs to service an L1 access request.
/// `write` distinguishes GetS/GetM traffic.
using MemAccessFn = std::function<void(std::uint64_t address, bool write)>;

class CoreModel {
 public:
  CoreModel(NodeId node, AppId app, IpcModel ipc, const FrequencyTable* freqs,
            std::uint64_t seed)
      : node_(node), app_(app), ipc_(ipc), freqs_(freqs), rng_(seed) {
    refresh_rate();
  }

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] AppId app() const noexcept { return app_; }

  void set_mem_access_fn(MemAccessFn fn) {
    mem_access_ = std::move(fn);
    refresh_rate();
  }

  /// Address-stream parameters (installed by the workload layer).
  void set_address_stream(std::uint64_t base, std::uint64_t lines,
                          std::uint64_t shared_base, std::uint64_t shared_lines,
                          double shared_fraction, double write_fraction,
                          double accesses_per_kilo_instr) {
    as_base_ = base;
    as_lines_ = lines ? lines : 1;
    as_shared_base_ = shared_base;
    as_shared_lines_ = shared_lines ? shared_lines : 1;
    shared_fraction_ = shared_fraction;
    write_fraction_ = write_fraction;
    apki_ = accesses_per_kilo_instr;
    refresh_rate();
  }

  void set_level(int level) {
    level_ = level;
    refresh_rate();
  }
  [[nodiscard]] int level() const noexcept { return level_; }
  [[nodiscard]] double ghz() const { return freqs_->ghz(level_); }

  /// Duty-cycle factor in (0, 1]: when the granted budget is below even
  /// the lowest V/F point, the core is clock-throttled proportionally
  /// (dark-silicon style sprint-and-rest). 1.0 = no throttling.
  void set_duty(double duty) {
    duty_ = duty < 0.05 ? 0.05 : (duty > 1.0 ? 1.0 : duty);
    refresh_rate();
  }
  [[nodiscard]] double duty() const noexcept { return duty_; }

  /// IPC the core would achieve at DVFS level `lvl` with the current
  /// memory-latency estimate (the IPC(j, z, tau) of paper Def. 4).
  [[nodiscard]] double ipc_at_level(int lvl) const {
    return ipc_.ipc(freqs_->ghz(lvl));
  }
  /// Instructions per nanosecond at the current level -- the per-core term
  /// IPC(j, k, f_j) * f_j of paper Def. 1.
  [[nodiscard]] double current_throughput() const {
    return ipc_.throughput(ghz());
  }

  [[nodiscard]] const IpcModel& ipc_model() const noexcept { return ipc_; }

  /// Feeds an observed miss round trip (ns) to the IPC model.
  void observe_latency(double round_trip_ns) {
    ipc_.observe_latency(round_trip_ns);
    refresh_rate();
  }
  /// Feeds the epoch's measured NoC-bound miss rate to the IPC model.
  void update_mpi(double measured_mpi) {
    ipc_.update_mpi(measured_mpi);
    refresh_rate();
  }

  /// Advances the core by one NoC cycle (1 ns).
  void tick(Cycle /*now*/) {
    instructions_ += rate_;  // 1 cycle == 1 ns
    if (access_step_ < 0.0) return;
    access_accumulator_ += access_step_;
    if (access_accumulator_ >= 1.0) issue_accesses();
  }

  [[nodiscard]] double instructions_retired() const noexcept {
    return instructions_;
  }
  void reset_instruction_count() noexcept { instructions_ = 0.0; }

  [[nodiscard]] std::uint64_t accesses_issued() const noexcept {
    return accesses_issued_;
  }

  /// Checkpointing: DVFS level, duty, retirement/access accumulators, the
  /// address-stream cursor, the RNG stream and the IPC model's adaptive
  /// latency estimate. Address-stream *parameters* are workload wiring and
  /// are re-installed by construction, not captured.
  [[nodiscard]] json::Value save_state() const;
  void load_state(const json::Value& v);

 private:
  /// Recomputes the cached per-cycle rates from their inputs (level,
  /// duty, IPC model, address stream, callback). Every setter of one of
  /// those inputs calls it, so `tick` never re-derives them.
  void refresh_rate();
  /// Issues every whole access in the accumulator (normally one).
  void issue_accesses();
  [[nodiscard]] std::uint64_t next_address();

  NodeId node_;  // snapshot-exempt: construction wiring (tile identity)
  AppId app_;    // snapshot-exempt: construction wiring (workload assignment)
  IpcModel ipc_;
  const FrequencyTable* freqs_;  // snapshot-exempt: shared immutable table, re-wired by construction
  Rng rng_;
  MemAccessFn mem_access_;  // snapshot-exempt: callback wiring, re-installed by construction

  int level_ = 0;
  double duty_ = 1.0;
  double instructions_ = 0.0;
  double access_accumulator_ = 0.0;
  std::uint64_t accesses_issued_ = 0;
  // Cached duty * IPC(f) * f: instructions retired per cycle.
  double rate_ = 0.0;  // snapshot-exempt: derived; recomputed by load_state
  // Cached rate_ * apki_ / 1000, or kNoAccesses when the core issues none.
  double access_step_ = 0.0;  // snapshot-exempt: derived; recomputed by load_state
  static constexpr double kNoAccesses = -1.0;

  // Address stream: mostly-sequential walk over a private region with a
  // fraction of accesses to the application's shared region.
  std::uint64_t as_base_ = 0;         // snapshot-exempt: workload config, fixed for the run
  std::uint64_t as_lines_ = 1;        // snapshot-exempt: workload config, fixed for the run
  std::uint64_t as_shared_base_ = 0;  // snapshot-exempt: workload config, fixed for the run
  std::uint64_t as_shared_lines_ = 1; // snapshot-exempt: workload config, fixed for the run
  std::uint64_t as_cursor_ = 0;
  double shared_fraction_ = 0.1;  // snapshot-exempt: workload config, fixed for the run
  double write_fraction_ = 0.2;   // snapshot-exempt: workload config, fixed for the run
  // NoC-bound accesses per kilo-instruction
  double apki_ = 0.0;  // snapshot-exempt: workload config, fixed for the run
};

}  // namespace htpb::cpu
