#include "system/manycore_system.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/snapshot.hpp"
#include "common/validate.hpp"
#include "mem/coherence.hpp"
#include "workload/benchmark_profile.hpp"

namespace htpb::system {

namespace {
bool g_snapshot_self_test = false;
}  // namespace

void set_snapshot_self_test(bool on) noexcept { g_snapshot_self_test = on; }
bool snapshot_self_test() noexcept { return g_snapshot_self_test; }

namespace {

/// Disjoint address regions: the app id selects a large region, each
/// thread a private sub-region, and bit 38 the app's shared region.
constexpr std::uint64_t private_base(AppId app, int thread_idx) {
  return (static_cast<std::uint64_t>(app + 1) << 40) |
         (static_cast<std::uint64_t>(thread_idx) << 22);
}
constexpr std::uint64_t shared_base(AppId app) {
  return (static_cast<std::uint64_t>(app + 1) << 40) | (1ULL << 38);
}

}  // namespace

ManyCoreSystem::ManyCoreSystem(SystemConfig cfg,
                               std::vector<workload::Application> apps)
    : cfg_(std::move(cfg)), apps_(std::move(apps)) {
  check_at("ManyCoreSystem: ", [&] { cfg_.validate(); });
  net_ = std::make_unique<noc::MeshNetwork>(
      engine_, MeshGeometry(cfg_.width, cfg_.height), cfg_.noc);
  gm_node_ = cfg_.resolved_gm_node();

  build_tiles();
  for (Tile& t : tiles_) {
    if (t.has_core()) cores_.push_back(t.core.get());
  }

  // Chip budget: fraction of the all-cores-at-max demand; floor: the
  // lowest operating point (cores are never power-gated by budgeting).
  std::uint64_t max_demand = 0;
  int cores = 0;
  for (const Tile& t : tiles_) {
    if (t.has_core()) {
      max_demand += cfg_.power_model.milliwatts_at(cfg_.freqs,
                                                   cfg_.freqs.max_level());
      ++cores;
    }
  }
  floor_mw_ = cfg_.power_model.milliwatts_at(cfg_.freqs, 0);
  budget_mw_ = static_cast<std::uint64_t>(
      cfg_.budget_fraction * static_cast<double>(max_demand));
  if (cores > 0) {
    budget_mw_ = std::max<std::uint64_t>(
        budget_mw_, static_cast<std::uint64_t>(cores) * floor_mw_);
  }

  std::unique_ptr<power::Budgeter> budgeter =
      power::make_budgeter(cfg_.budgeter);
  if (cfg_.guard.has_value()) {
    budgeter = std::make_unique<power::GuardedBudgeter>(std::move(budgeter),
                                                        *cfg_.guard);
  }
  gm_ = std::make_unique<power::GlobalManager>(gm_node_, net_.get(),
                                               std::move(budgeter), budget_mw_,
                                               floor_mw_);
  std::vector<bool> attacker_apps(apps_.size(), false);
  for (const auto& app : apps_) {
    if (app.id < attacker_apps.size()) {
      attacker_apps[app.id] = app.is_attacker();
    }
  }
  gm_->set_attacker_lookup([attacker_apps](AppId app) {
    return app < attacker_apps.size() && attacker_apps[app];
  });

  for (NodeId n = 0; n < static_cast<NodeId>(cfg_.node_count()); ++n) {
    net_->set_handler(n, [this, n](const noc::Packet& pkt) { dispatch(n, pkt); });
  }

  // Epoch drivers are scheduled as event descriptors (sim/event_desc.hpp)
  // so checkpoints can capture the pending epoch/allocate events.
  engine_.set_handler(sim::EventKind::kSystemEpochStart, -1,
                      [this](const sim::EventDesc&) {
                        begin_epoch();
                        next_epoch_start_ += cfg_.epoch_cycles;
                        schedule_next_epoch();
                      });
  engine_.set_handler(sim::EventKind::kSystemAllocate, -1,
                      [this](const sim::EventDesc&) {
                        gm_->allocate_and_reply(engine_.now());
                      });

  engine_.add_tickable(this);  // cores tick after the network
  instr_snapshot_.assign(tiles_.size(), 0.0);
  next_epoch_start_ = cfg_.first_epoch_cycle;
  schedule_next_epoch();
}

void ManyCoreSystem::build_tiles() {
  const int n = cfg_.node_count();
  tiles_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    tiles_[static_cast<std::size_t>(i)].node = static_cast<NodeId>(i);
    tiles_[static_cast<std::size_t>(i)].l2 = std::make_unique<mem::L2Bank>(
        static_cast<NodeId>(i), cfg_.l2, net_.get(), &engine_);
  }
  for (const workload::Application& app : apps_) {
    if (static_cast<int>(app.cores.size()) != app.threads) {
      throw std::invalid_argument(
          "ManyCoreSystem: application threads not mapped (call a mapper)");
    }
    for (std::size_t t = 0; t < app.cores.size(); ++t) {
      const NodeId node = app.cores[t];
      Tile& tile = tiles_[node];
      if (tile.has_core()) {
        throw std::invalid_argument(
            "ManyCoreSystem: two threads mapped to one core");
      }
      const workload::BenchmarkProfile& prof = app.profile;
      // Initial NoC-bound miss-rate guess (most line-granular accesses
      // miss the small L1); recalibrated every epoch from the L1's
      // measured behaviour.
      const double initial_mpi = prof.apki / 1000.0 * 0.8;
      cpu::IpcModel ipc(prof.cpi_base, initial_mpi);
      tile.core = std::make_unique<cpu::CoreModel>(
          node, app.id, ipc, &cfg_.freqs,
          cfg_.seed * 0x9E3779B9ULL + node + 1);
      tile.core->set_address_stream(
          private_base(app.id, static_cast<int>(t)), prof.working_set_lines,
          shared_base(app.id), prof.shared_lines, prof.shared_fraction,
          prof.write_fraction, prof.apki);
      tile.l1 = std::make_unique<mem::L1Cache>(node, cfg_.l1, net_.get(),
                                               tile.core.get());
      mem::L1Cache* l1 = tile.l1.get();
      tile.core->set_mem_access_fn(
          [l1](std::uint64_t addr, bool write) { l1->access(addr, write); });
    }
  }
}

void ManyCoreSystem::dispatch(NodeId node, const noc::Packet& pkt) {
  Tile& tile = tiles_[node];
  switch (pkt.type) {
    case noc::PacketType::kPowerRequest:
      if (node == gm_node_) gm_->on_power_request(pkt);
      break;
    case noc::PacketType::kPowerGrant:
      tile.last_grant_mw = pkt.payload;
      if (tile.has_core()) {
        tile.core->set_level(
            cfg_.power_model.max_level_within(cfg_.freqs, pkt.payload));
        // Grants below the lowest operating point throttle the core's
        // clock proportionally (sprint-and-rest); at or above the floor
        // the core runs continuously at the granted V/F level.
        if (pkt.payload < floor_mw_) {
          tile.core->set_duty(static_cast<double>(pkt.payload) /
                              static_cast<double>(floor_mw_));
        } else {
          tile.core->set_duty(1.0);
        }
      }
      break;
    case noc::PacketType::kMemReply:
    case noc::PacketType::kCohInvalidate:
      if (tile.l1) tile.l1->on_packet(pkt);
      break;
    case noc::PacketType::kMemReadReq:
    case noc::PacketType::kMemWriteReq:
    case noc::PacketType::kWriteback:
    case noc::PacketType::kCohAck:
      tile.l2->on_packet(pkt);
      break;
    case noc::PacketType::kConfigCmd:
      // Trojan configuration acts on routers in flight; the destination
      // tile simply sinks the packet.
      break;
    default:
      break;
  }
}

int ManyCoreSystem::desired_level(const cpu::CoreModel& core) const {
  // Largest useful level: the smallest level already delivering >= 97% of
  // the throughput of the maximum level. Compute-bound threads ask for the
  // top level; saturated memory-bound threads ask for less.
  const int max_lvl = cfg_.freqs.max_level();
  const double best = core.ipc_model().throughput(cfg_.freqs.ghz(max_lvl));
  for (int lvl = 0; lvl <= max_lvl; ++lvl) {
    if (core.ipc_model().throughput(cfg_.freqs.ghz(lvl)) >= 0.97 * best) {
      return lvl;
    }
  }
  return max_lvl;
}

void ManyCoreSystem::begin_epoch() {
  refresh_miss_rates();
  gm_->begin_epoch(engine_.now());
  for (Tile& tile : tiles_) {
    if (!tile.has_core()) continue;
    const int lvl = desired_level(*tile.core);
    const std::uint32_t request =
        cfg_.power_model.milliwatts_at(cfg_.freqs, lvl);
    auto pkt = net_->make_packet(tile.node, gm_node_,
                                 noc::PacketType::kPowerRequest, request);
    pkt->src_app = tile.core->app();
    net_->send(std::move(pkt));
  }
  engine_.schedule_desc_in(
      cfg_.resolved_collect_window(),
      sim::EventDesc{sim::EventKind::kSystemAllocate, -1, 0, 0});
}

void ManyCoreSystem::schedule_next_epoch() {
  engine_.schedule_desc_at(
      next_epoch_start_,
      sim::EventDesc{sim::EventKind::kSystemEpochStart, -1, 0, 0});
}

void ManyCoreSystem::refresh_miss_rates() {
  for (Tile& tile : tiles_) {
    if (!tile.has_core() || !tile.l1) continue;
    const double instr = tile.core->instructions_retired();
    const auto misses = tile.l1->stats().misses + tile.l1->stats().upgrades;
    const double d_instr = instr - tile.last_instructions;
    const double d_miss =
        static_cast<double>(misses - tile.last_misses);
    if (d_instr > 100.0) {
      tile.core->update_mpi(d_miss / d_instr);
    }
    tile.last_instructions = instr;
    tile.last_misses = misses;
  }
}

void ManyCoreSystem::tick(Cycle now) {
  for (cpu::CoreModel* core : cores_) core->tick(now);
}

std::optional<Cycle> ManyCoreSystem::last_allocate_before(Cycle end) const {
  // Epoch k opens at first_epoch_cycle + k x epoch_cycles, and
  // begin_epoch schedules its kSystemAllocate one collect window later.
  const Cycle first =
      cfg_.first_epoch_cycle + cfg_.resolved_collect_window();
  if (end <= first) return std::nullopt;
  const Cycle last =
      first + (end - 1 - first) / cfg_.epoch_cycles * cfg_.epoch_cycles;
  if (last < engine_.now()) return std::nullopt;
  return last;
}

void ManyCoreSystem::run_epochs(int epochs, Horizon horizon) {
  Cycle total = static_cast<Cycle>(epochs) * cfg_.epoch_cycles;
  std::optional<Cycle> last_allocate;
  if (horizon == Horizon::kLastWindow) {
    last_allocate = last_allocate_before(engine_.now() + total);
    if (last_allocate.has_value()) {
      total = *last_allocate + 1 - engine_.now();
    }
  }
  if (!g_snapshot_self_test || epochs < 2) {
    engine_.run_cycles(total);
  } else {
    // Armed self-test: interrupt at one near-boundary cut and one
    // mid-epoch cut, round-tripping the whole system through its JSON
    // snapshot each time. Bit-identity with the uninterrupted run is the
    // property under test (tests/scenario/snapshot_roundtrip_test.cpp).
    const Cycle cuts[] = {total / 4, total / 2 + cfg_.epoch_cycles / 2};
    Cycle done = 0;
    for (const Cycle cut : cuts) {
      if (cut <= done || cut >= total) continue;
      engine_.run_cycles(cut - done);
      done = cut;
      const std::string text = json::dump(save_state());
      load_state(json::parse(text));
    }
    engine_.run_cycles(total - done);
  }
  // The stop came from the epoch schedule; the manager's history records
  // where the last window really closed. A window that closes on another
  // cycle would leave a short run's records unfinished, so refuse it.
  if (last_allocate.has_value() &&
      (gm_->history().empty() ||
       gm_->history().back().allocate_cycle != *last_allocate)) {
    throw std::logic_error(
        "ManyCoreSystem::run_epochs: the last collection window did not "
        "close on cycle " +
        std::to_string(*last_allocate));
  }
}

json::Value ManyCoreSystem::save_state() const {
  json::Object o;
  o["engine"] = engine_.save_state();
  o["network"] = net_->save_state();
  json::Array tiles;
  for (const Tile& t : tiles_) {
    json::Object to;
    if (t.core) to["core"] = t.core->save_state();
    if (t.l1) to["l1"] = t.l1->save_state();
    to["l2"] = t.l2->save_state();
    to["last_instructions"] = json::Value(t.last_instructions);
    to["last_misses"] = common::ju64(t.last_misses);
    to["last_grant_mw"] =
        json::Value(static_cast<long long>(t.last_grant_mw));
    tiles.push_back(json::Value(std::move(to)));
  }
  o["tiles"] = json::Value(std::move(tiles));
  o["gm"] = gm_->save_state();
  o["next_epoch_start"] = common::ju64(next_epoch_start_);
  o["measure_start"] = common::ju64(measure_start_);
  json::Array instr;
  for (const double d : instr_snapshot_) instr.push_back(json::Value(d));
  o["instr_snapshot"] = json::Value(std::move(instr));
  o["infection_history_mark"] =
      common::ju64(static_cast<std::uint64_t>(infection_history_mark_));
  return json::Value(std::move(o));
}

void ManyCoreSystem::load_state(const json::Value& v) {
  const json::Object& o = v.as_object();
  // Shape check BEFORE any sub-layer mutates: a checkpoint from a
  // different mesh must be rejected whole, not die mid-restore inside
  // the network with half this system overwritten.
  const json::Array& tiles = o.at("tiles").as_array();
  if (tiles.size() != tiles_.size()) {
    throw std::invalid_argument(
        "ManyCoreSystem::load_state: tile count mismatch (checkpoint from a "
        "different configuration?)");
  }
  engine_.load_state(o.at("engine"));
  net_->load_state(o.at("network"));
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    Tile& t = tiles_[i];
    const json::Object& to = tiles[i].as_object();
    const bool has_core = to.contains("core");
    if (has_core != (t.core != nullptr) ||
        to.contains("l1") != (t.l1 != nullptr)) {
      throw std::invalid_argument(
          "ManyCoreSystem::load_state: core placement mismatch (checkpoint "
          "from a different thread mapping?)");
    }
    if (t.core) t.core->load_state(to.at("core"));
    if (t.l1) t.l1->load_state(to.at("l1"));
    t.l2->load_state(to.at("l2"));
    t.last_instructions = to.at("last_instructions").as_double();
    t.last_misses = common::pu64(to.at("last_misses"));
    t.last_grant_mw =
        static_cast<std::uint32_t>(to.at("last_grant_mw").as_int());
  }
  gm_->load_state(o.at("gm"));
  next_epoch_start_ = common::pu64(o.at("next_epoch_start"));
  measure_start_ = common::pu64(o.at("measure_start"));
  const json::Array& instr = o.at("instr_snapshot").as_array();
  instr_snapshot_.assign(tiles_.size(), 0.0);
  for (std::size_t i = 0; i < instr.size() && i < instr_snapshot_.size(); ++i) {
    instr_snapshot_[i] = instr[i].as_double();
  }
  infection_history_mark_ =
      static_cast<std::size_t>(common::pu64(o.at("infection_history_mark")));
}

void ManyCoreSystem::reset_measurement() {
  measure_start_ = engine_.now();
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    instr_snapshot_[i] =
        tiles_[i].has_core() ? tiles_[i].core->instructions_retired() : 0.0;
  }
  infection_history_mark_ = gm_->history().size();
}

double ManyCoreSystem::app_throughput(AppId app) const {
  const double elapsed =
      static_cast<double>(engine_.now() - measure_start_);
  if (elapsed <= 0.0) return 0.0;
  double instr = 0.0;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    const Tile& tile = tiles_[i];
    if (tile.has_core() && tile.core->app() == app) {
      instr += tile.core->instructions_retired() - instr_snapshot_[i];
    }
  }
  return instr / elapsed;
}

double ManyCoreSystem::measured_infection_rate() const {
  return gm_->mean_infection_rate(infection_history_mark_);
}

double ManyCoreSystem::core_sensitivity(NodeId node) const {
  const cpu::CoreModel* c = core(node);
  if (c == nullptr) return 0.0;
  // Def. 4, interpreted on per-second performance IPC(tau)*tau rather than
  // per-cycle IPC: a literal per-cycle reading would rank memory-bound
  // threads as the most sensitive (their IPC *falls* fastest with f),
  // inverting the paper's own statement that instruction-bound
  // applications are hit hardest (Sec. IV).
  double phi = 0.0;
  for (int lvl = 0; lvl + 1 < cfg_.freqs.num_levels(); ++lvl) {
    const double perf_lo = c->ipc_at_level(lvl) * cfg_.freqs.ghz(lvl);
    const double perf_hi =
        c->ipc_at_level(lvl + 1) * cfg_.freqs.ghz(lvl + 1);
    const double d_tau = cfg_.freqs.ghz(lvl) - cfg_.freqs.ghz(lvl + 1);
    phi += std::abs((perf_lo - perf_hi) / d_tau);
  }
  return phi;
}

double ManyCoreSystem::app_sensitivity(AppId app) const {
  double sum = 0.0;
  int count = 0;
  for (const Tile& tile : tiles_) {
    if (tile.has_core() && tile.core->app() == app) {
      sum += core_sensitivity(tile.node);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace htpb::system
