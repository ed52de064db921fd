#include "cpu/core_model.hpp"

#include <array>
#include <utility>

#include "common/snapshot.hpp"

namespace htpb::cpu {

void CoreModel::refresh_rate() {
  rate_ = duty_ * ipc_.throughput(freqs_->ghz(level_));
  access_step_ =
      apki_ <= 0.0 || !mem_access_ ? kNoAccesses : rate_ * apki_ / 1000.0;
}

void CoreModel::issue_accesses() {
  while (access_accumulator_ >= 1.0) {
    access_accumulator_ -= 1.0;
    const bool write = rng_.chance(write_fraction_);
    mem_access_(next_address(), write);
    ++accesses_issued_;
  }
}

std::uint64_t CoreModel::next_address() {
  if (rng_.chance(shared_fraction_)) {
    // Shared-region access: uniform over the application's shared lines.
    return as_shared_base_ + rng_.below(as_shared_lines_);
  }
  // Private region: mostly-sequential walk with occasional random jumps,
  // giving a realistic mix of spatial locality and conflict misses.
  if (rng_.chance(0.15)) {
    as_cursor_ = rng_.below(as_lines_);
  } else {
    as_cursor_ = (as_cursor_ + 1) % as_lines_;
  }
  return as_base_ + as_cursor_;
}

json::Value CoreModel::save_state() const {
  json::Object o;
  o["level"] = json::Value(static_cast<long long>(level_));
  o["duty"] = json::Value(duty_);
  o["instructions"] = json::Value(instructions_);
  o["access_accumulator"] = json::Value(access_accumulator_);
  o["accesses_issued"] = common::ju64(accesses_issued_);
  o["as_cursor"] = common::ju64(as_cursor_);
  json::Array rng;
  for (const std::uint64_t w : rng_.state()) rng.push_back(common::ju64(w));
  o["rng"] = json::Value(std::move(rng));
  o["mpi"] = json::Value(ipc_.mpi());
  o["mem_latency_ns"] = json::Value(ipc_.mem_latency_ns());
  return json::Value(std::move(o));
}

void CoreModel::load_state(const json::Value& v) {
  const json::Object& o = v.as_object();
  level_ = static_cast<int>(o.at("level").as_int());
  duty_ = o.at("duty").as_double();
  instructions_ = o.at("instructions").as_double();
  access_accumulator_ = o.at("access_accumulator").as_double();
  accesses_issued_ = common::pu64(o.at("accesses_issued"));
  as_cursor_ = common::pu64(o.at("as_cursor"));
  const json::Array& rng = o.at("rng").as_array();
  std::array<std::uint64_t, 4> st{};
  for (std::size_t i = 0; i < 4; ++i) st[i] = common::pu64(rng.at(i));
  rng_.set_state(st);
  ipc_.set_mpi(o.at("mpi").as_double());
  ipc_.set_mem_latency_ns(o.at("mem_latency_ns").as_double());
  refresh_rate();
}

}  // namespace htpb::cpu
