#include "probes.hpp"

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/geometry.hpp"
#include "common/subprocess.hpp"
#include "core/run_dir.hpp"
#include "noc/network.hpp"
#include "noc_traffic.hpp"
#include "scenario/cells.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "system/manycore_system.hpp"

namespace scenbench {

namespace hj = htpb::json;
using Scope = Tracer::Scope;

LegProbe probe_leg(const Chip& chip, Tracer& tracer) {
  LegProbe p;
  Scope leg(tracer, "probe.leg");
  std::unique_ptr<htpb::system::ManyCoreSystem> sys;
  {
    Scope s(tracer, "system.build");
    sys = std::make_unique<htpb::system::ManyCoreSystem>(chip.cfg, chip.apps);
    p.build_ms = s.stop();
  }

  double epoch_ms = 0.0;
  int epochs = 0;
  const auto run_epoch = [&] {
    Scope s(tracer, "system.epoch");
    sys->run_epochs(1);
    epoch_ms += s.stop();
    ++epochs;
  };
  for (int e = 0; e < chip.warmup_epochs; ++e) run_epoch();

  // The warmup-fork path: snapshot the chip, round-trip the snapshot
  // through JSON text, and restore it in place.
  std::string text;
  {
    hj::Value snapshot;
    {
      Scope s(tracer, "system.save");
      snapshot = sys->save_state();
      p.save_ms = s.stop();
    }
    Scope s(tracer, "common.dump");
    text = hj::dump(snapshot, 0);
    p.dump_ms = s.stop();
  }
  p.snapshot_mb = static_cast<double>(text.size()) / 1e6;
  {
    hj::Value parsed;
    {
      Scope s(tracer, "common.parse");
      parsed = hj::parse(text);
      p.parse_ms = s.stop();
    }
    Scope s(tracer, "system.load");
    sys->load_state(parsed);
    p.load_ms = s.stop();
  }

  sys->reset_measurement();
  for (int e = 0; e < chip.measure_epochs; ++e) run_epoch();

  const auto cycles = static_cast<double>(sys->engine().now());
  const auto nodes = static_cast<htpb::NodeId>(chip.cfg.node_count());
  p.epoch_ms = epoch_ms / epochs;
  p.ns_per_cycle = epoch_ms * 1e6 /
                   (static_cast<double>(epochs) *
                    static_cast<double>(chip.cfg.epoch_cycles));

  const htpb::noc::RouterStats routers = sys->network().total_router_stats();
  const auto flits = static_cast<double>(routers.flits_forwarded);
  p.flits_per_cycle = flits / cycles;
  p.sa_stalls_per_kflit =
      static_cast<double>(routers.sa_conflict_stalls) * 1000.0 / flits;
  p.packets_per_node_cycle =
      static_cast<double>(sys->network().stats().packets_sent) / cycles /
      static_cast<double>(nodes);

  double l1_hits = 0.0;
  double l1_misses = 0.0;
  double l2_fetches = 0.0;
  double instructions = 0.0;
  int cores = 0;
  for (htpb::NodeId n = 0; n < nodes; ++n) {
    l2_fetches += static_cast<double>(sys->l2(n)->stats().memory_fetches);
    if (const htpb::mem::L1Cache* l1 = sys->l1(n)) {
      l1_hits += static_cast<double>(l1->stats().hits);
      l1_misses += static_cast<double>(l1->stats().misses);
    }
    if (const htpb::cpu::CoreModel* core = sys->core(n)) {
      instructions += core->instructions_retired();
      ++cores;
    }
  }
  p.l1_miss_rate = l1_misses / (l1_hits + l1_misses);
  p.l2_fetches_per_kcycle = l2_fetches * 1000.0 / cycles;
  p.ipc = instructions / (static_cast<double>(cores) * cycles);

  double requests = 0.0;
  const auto& history = sys->gm().history();
  for (const auto& epoch : history) {
    requests += static_cast<double>(epoch.requests_received);
  }
  p.requests_per_epoch = requests / static_cast<double>(history.size());

  Scope s(tracer, "system.teardown");
  sys.reset();
  p.teardown_ms = s.stop();
  return p;
}

double probe_noc_kernel(const Chip& chip, double rate, std::uint64_t seed,
                        Tracer& tracer) {
  std::vector<double> ns_per_flit;
  for (int rep = 0; rep < 3; ++rep) {
    htpb::sim::Engine engine;
    htpb::noc::MeshNetwork net(
        engine, htpb::MeshGeometry(chip.cfg.width, chip.cfg.height),
        chip.cfg.noc);
    UniformTraffic traffic(net, rate, seed);
    Scope s(tracer, "noc.kernel");
    engine.run_cycles(chip.cfg.epoch_cycles);
    const double ms = s.stop();
    const auto flits = net.total_router_stats().flits_forwarded;
    s.count("flits", hj::Value(static_cast<long long>(flits)));
    ns_per_flit.push_back(ms * 1e6 / static_cast<double>(flits));
  }
  return summarize(ns_per_flit).median;
}

FleetRun run_fleet(const Inputs& in, const std::string& run_dir,
                   Tracer& tracer) {
  namespace fs = std::filesystem;
  fs::remove_all(run_dir);
  FleetRun out;
  Scope campaign(tracer, "fleet.campaign");

  htpb::scenario::ScenarioSpec resolved;
  {
    Scope s(tracer, "scenario.resolve");
    resolved = htpb::scenario::resolve(in.spec, in.opts);
    out.resolve_ms = s.stop();
  }
  std::vector<htpb::scenario::CellPlan> plan;
  {
    Scope s(tracer, "scenario.expand");
    plan = htpb::scenario::expand_cells(resolved);
    out.expand_ms = s.stop();
    s.count("cells", hj::Value(static_cast<long long>(plan.size())));
  }
  out.cells = static_cast<int>(plan.size());

  std::vector<htpb::core::FleetCell> cells;
  for (const auto& cell : plan) {
    cells.push_back(
        {cell.id, hj::dump(cell.spec.to_json(), 2) + "\n"});
  }
  htpb::core::FleetConfig config;
  config.run_dir = run_dir;
  config.shards = kFleetShards;
  config.resume = false;
  config.worker_command = [](const std::string& spec_path,
                             const std::string& result_path) {
    return std::vector<std::string>{SCENBENCH_HTPB_RUN, "--scenario",
                                    spec_path,          "--json",
                                    result_path,        "--threads",
                                    "1"};
  };
  htpb::core::FleetScheduler scheduler(config);
  {
    Scope s(tracer, "fleet.run");
    out.report = scheduler.run(
        resolved.name,
        htpb::core::fingerprint(hj::dump(resolved.to_json(), 2)), cells);
    s.count("attempts", hj::Value(out.report.attempts));
    s.count("failed", hj::Value(out.report.failed));
  }

  std::vector<hj::Value> results(plan.size());
  {
    Scope s(tracer, "common.parse");
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (!out.report.cells[i].done) continue;
      results[i] =
          hj::parse_file(scheduler.run_dir().result_path(plan[i].id));
      out.cell_seconds += results[i]
                              .as_object()
                              .find("timing")
                              ->as_object()
                              .find("seconds")
                              ->as_double();
    }
  }
  {
    Scope s(tracer, "scenario.merge");
    out.merged = htpb::scenario::merge_cell_results(
        resolved, in.opts.quick, in.opts.threads, results);
    out.merge_ms = s.stop();
  }
  hj::Object fleet;
  fleet["cells"] = hj::Value(out.cells);
  fleet["done"] = hj::Value(out.report.done);
  fleet["failed"] = hj::Value(out.report.failed);
  fleet["attempts"] = hj::Value(out.report.attempts);
  fleet["shards"] = hj::Value(kFleetShards);
  out.merged.as_object()["fleet"] = hj::Value(std::move(fleet));

  const std::string text = hj::dump(out.merged, 2) + "\n";
  {
    Scope s(tracer, "common.atomic_write");
    htpb::common::atomic_write_file(scheduler.run_dir().merged_path(), text);
    out.atomic_write_ms = s.stop();
  }
  out.wall_ms = campaign.stop();
  fs::remove_all(run_dir);
  return out;
}

double worker_start_ms(int launches) {
  htpb::common::SubprocessOptions quiet;
  quiet.stdout_path = "/dev/null";
  std::vector<double> ms;
  for (int i = 0; i < launches; ++i) {
    const htpb::common::SubprocessResult r =
        htpb::common::run_subprocess({SCENBENCH_HTPB_RUN, "--list"}, quiet);
    if (r.exit_code != 0) {
      throw std::runtime_error("htpb_run --list failed");
    }
    ms.push_back(r.seconds * 1000.0);
  }
  return summarize(ms).median;
}

}  // namespace scenbench
