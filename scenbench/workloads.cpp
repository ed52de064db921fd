#include "workloads.hpp"

#include <filesystem>
#include <stdexcept>
#include <tuple>

#include "common/atomic_file.hpp"
#include "core/campaign.hpp"
#include "core/run_dir.hpp"
#include "scenario/registry.hpp"

namespace scenbench {

namespace hj = htpb::json;
using htpb::scenario::ScenarioSpec;

const std::vector<Workload>& workloads() {
  // Why each workload is here (README.md has the full table):
  //  attack-256     256-core legs with a baseline; NoC per-flit cost dominates.
  //  infection-512  512-core legs, no baseline, serial sweep; per-leg fixed
  //                 costs (chip build, warmup fork snapshot) are ~30%. Only
  //                 the quick sweep's 512-core arm, at three Trojan counts,
  //                 so that a run holds several reps.
  //  defense-64     many short 64-core legs: detector, responses, adaptive
  //                 Trojan, migrate rebuilds -- power layer and orchestration.
  //  fleet-ablation light simulation; process start-up, spec/result files
  //                 and split/merge through the fleet scheduler.
  static const std::vector<Workload> all = {
      {"attack-256", "fig5", false, false, "",
       R"({"workload": {"mixes": ["mix-4"]},
           "epochs": {"warmup": 1, "measure": 1},
           "axes": {"infection_targets": [0.9]}})"},
      {"infection-512", "fig3", true, false,
       R"({"axes": {"arms": [{"nodes": 512, "ht_counts": [10, 30, 60]}]}})",
       R"({"epochs": {"measure": 1},
           "axes": {"arms": [{"nodes": 512, "ht_counts": [20]}],
                    "gm_placements": ["center"], "seeds": 1}})"},
      {"defense-64", "defense-closed-loop", false, false, "",
       R"({"epochs": {"measure": 2}, "axes": {"responses": ["quarantine"]}})"},
      {"fleet-ablation", "budgeter-ablation", false, true, "",
       R"({"epochs": {"measure": 2},
           "axes": {"budgeters": ["uniform", "greedy"]}})"},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const Workload& w, std::optional<std::uint64_t> seed,
                   bool smoke, int threads) {
  Inputs in;
  in.spec = htpb::scenario::scenario_or_throw(w.scenario);
  in.opts.quick = w.quick || smoke;
  const auto apply = [&in](std::string_view patch) {
    if (patch.empty()) return;
    const ScenarioSpec base = in.opts.quick ? in.spec.with_quick() : in.spec;
    in.spec = ScenarioSpec::from_json(
        htpb::scenario::merge_patch(base.to_json(), hj::parse(patch)));
    in.spec.validate();
  };
  apply(w.patch);
  if (smoke) apply(w.smoke_patch);
  in.opts.threads = threads;
  in.opts.seed = seed;
  in.digest_key = std::string(w.name) + (smoke ? "/smoke" : "");
  in.seed_key = seed.has_value() ? std::to_string(*seed) : "default";
  return in;
}

std::string digest(const hj::Value& result) {
  hj::Object kept;
  for (const auto& [key, value] : result.as_object()) {
    if (key == "timing" || key == "threads" || key == "fleet") continue;
    kept[key] = value;
  }
  return htpb::core::fingerprint(hj::dump(hj::Value(std::move(kept)), 0));
}

namespace {

bool has_null_leaf(const hj::Value& v) {
  switch (v.type()) {
    case hj::Value::Type::kNull:
      return true;
    case hj::Value::Type::kArray:
      for (const hj::Value& e : v.as_array()) {
        if (has_null_leaf(e)) return true;
      }
      return false;
    case hj::Value::Type::kObject:
      for (const auto& member : v.as_object()) {
        if (has_null_leaf(member.second)) return true;
      }
      return false;
    default:
      return false;
  }
}

}  // namespace

std::string check_result(const Inputs& in, const hj::Value& result) {
  if (!result.is_object()) return "result is not a JSON object";
  const hj::Value* name = result.as_object().find("scenario");
  if (name == nullptr || !name->is_string() ||
      name->as_string() != in.spec.name) {
    return "result names the wrong scenario";
  }
  if (has_null_leaf(result)) return "result holds a null (NaN or inf) value";
  return "";
}

std::optional<double> q_peak(const hj::Value& result) {
  const hj::Value* mixes = result.as_object().find("mixes");
  if (mixes == nullptr || !mixes->is_array()) return std::nullopt;
  std::optional<double> peak;
  for (const hj::Value& mix : mixes->as_array()) {
    const hj::Value* rows = mix.as_object().find("rows");
    if (rows == nullptr) continue;
    for (const hj::Value& row : rows->as_array()) {
      if (const hj::Value* q = row.as_object().find("q")) {
        if (!peak.has_value() || q->as_double() > *peak) peak = q->as_double();
      }
    }
  }
  return peak;
}

DigestBook::DigestBook(std::string path) : path_(std::move(path)) {
  doc_ = std::filesystem::exists(path_) ? hj::parse_file(path_)
                                        : hj::Value(hj::Object{});
  if (!doc_.is_object()) {
    throw std::runtime_error(path_ + ": expected a JSON object");
  }
}

std::optional<std::string> DigestBook::expected(
    const std::string& digest_key, const std::string& seed_key) const {
  const hj::Value* seeds = doc_.as_object().find(digest_key);
  if (seeds == nullptr) return std::nullopt;
  const hj::Value* d = seeds->as_object().find(seed_key);
  if (d == nullptr) return std::nullopt;
  return d->as_string();
}

void DigestBook::set(const std::string& digest_key,
                     const std::string& seed_key, const std::string& digest) {
  hj::Value& seeds = doc_.as_object()[digest_key];
  if (!seeds.is_object()) seeds = hj::Value(hj::Object{});
  seeds.as_object()[seed_key] = hj::Value(digest);
}

void DigestBook::save() const {
  htpb::common::atomic_write_file(path_, hj::dump(doc_, 2) + "\n");
}

std::string default_digest_path() {
  return std::string(SCENBENCH_SOURCE_DIR) + "/expected_digests.json";
}

Chip largest_chip(const ScenarioSpec& resolved) {
  htpb::scenario::SystemSpec sys = resolved.system;
  int nodes = sys.width * sys.height;
  std::vector<int> sizes = resolved.axes.sizes;
  for (const auto& arm : resolved.axes.arms) sizes.push_back(arm.nodes);
  for (const int size : sizes) {
    if (size > nodes) {
      nodes = size;
      std::tie(sys.width, sys.height) = htpb::scenario::mesh_for_size(size);
    }
  }

  htpb::core::CampaignConfig cfg;
  cfg.system = sys.to_system_config();
  const std::string& mix = resolved.workload.mixes.empty()
                               ? resolved.workload.mix
                               : resolved.workload.mixes.front();
  if (!mix.empty()) {
    for (const auto& m : htpb::workload::standard_mixes()) {
      if (m.name == mix) cfg.mix = m;
    }
  }
  cfg.threads_per_app = resolved.workload.threads_per_app;

  Chip chip;
  chip.apps = htpb::core::AttackCampaign(cfg).apps();
  chip.cfg = cfg.system;
  chip.warmup_epochs = resolved.epochs.warmup;
  chip.measure_epochs = resolved.epochs.measure;
  return chip;
}

bool is_count_metric(std::string_view name) {
  static constexpr std::string_view kCounts[] = {
      "core.systems",         "core.warmup_epochs",
      "core.fork_saved_frac", "system.snapshot_mb",
      "noc.flits_per_cycle",  "noc.sa_stalls_per_kflit",
      "mem.l1_miss_rate",     "mem.l2_fetches_per_kcycle",
      "cpu.ipc",              "power.requests_per_epoch",
      "fleet.cells",          "fleet.attempts",
  };
  for (const std::string_view c : kCounts) {
    if (c == name) return true;
  }
  return false;
}

}  // namespace scenbench
