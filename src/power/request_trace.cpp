#include "power/request_trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <type_traits>

namespace htpb::power {

DetectorReport replay_detector(const RequestTrace& trace,
                               const DetectorConfig& cfg) {
  const std::unique_ptr<RequestAnomalyDetector> detector = make_detector(cfg);
  for (const TraceEpoch& epoch : trace.epochs) {
    (void)detector->observe_epoch(epoch.requests);
  }
  return detector->cumulative();
}

// ------------------------------------------------------ disk persistence
//
// Layout (all integers little-endian, no padding):
//   magic     8 bytes  "HTPBTRC\n"
//   version   u32      kTraceFormatVersion
//   node_count  u32
//   epoch_cycles u64
//   epoch_count  u64
//   per epoch:
//     epoch_start u64, allocate_cycle u64, budget_mw u64, requests u64
//     per request: node u32, app u32, request_mw u32
//
// Bump kTraceFormatVersion whenever TraceEpoch/BudgetRequest grow a
// field; load() rejects every version it was not written for instead of
// misreading old bytes.

namespace {

constexpr char kTraceMagic[8] = {'H', 'T', 'P', 'B', 'T', 'R', 'C', '\n'};
constexpr std::uint32_t kTraceFormatVersion = 1;

template <typename T>
void write_le(std::ofstream& out, T value) {
  static_assert(std::is_unsigned_v<T>);
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  out.write(bytes, sizeof(T));
}

template <typename T>
T read_le(std::ifstream& in, const std::string& path) {
  static_assert(std::is_unsigned_v<T>);
  char bytes[sizeof(T)];
  if (!in.read(bytes, sizeof(T))) {
    throw std::runtime_error("RequestTrace::load: " + path +
                             " is truncated");
  }
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

void RequestTrace::save(const std::string& path) const {
  errno = 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("RequestTrace::save: cannot write " + path +
                             ": " + std::strerror(errno));
  }
  out.write(kTraceMagic, sizeof kTraceMagic);
  write_le<std::uint32_t>(out, kTraceFormatVersion);
  write_le<std::uint32_t>(out, static_cast<std::uint32_t>(node_count));
  write_le<std::uint64_t>(out, epoch_cycles);
  write_le<std::uint64_t>(out, epochs.size());
  for (const TraceEpoch& epoch : epochs) {
    write_le<std::uint64_t>(out, epoch.epoch_start);
    write_le<std::uint64_t>(out, epoch.allocate_cycle);
    write_le<std::uint64_t>(out, epoch.budget_mw);
    write_le<std::uint64_t>(out, epoch.requests.size());
    for (const BudgetRequest& req : epoch.requests) {
      write_le<std::uint32_t>(out, req.node);
      write_le<std::uint32_t>(out, req.app);
      write_le<std::uint32_t>(out, req.request_mw);
    }
  }
  if (!out) {
    throw std::runtime_error("RequestTrace::save: write failed for " + path);
  }
}

RequestTrace RequestTrace::load(const std::string& path) {
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Name the path AND the OS reason: a typo'd trace path must read as
    // "No such file", not as a bare parse failure downstream.
    throw std::runtime_error("RequestTrace::load: cannot open " + path +
                             ": " + std::strerror(errno));
  }
  char magic[sizeof kTraceMagic];
  if (!in.read(magic, sizeof magic) ||
      std::memcmp(magic, kTraceMagic, sizeof magic) != 0) {
    throw std::runtime_error("RequestTrace::load: " + path +
                             " is not a request-trace file (bad magic)");
  }
  const auto version = read_le<std::uint32_t>(in, path);
  if (version != kTraceFormatVersion) {
    throw std::runtime_error(
        "RequestTrace::load: " + path + " has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kTraceFormatVersion));
  }
  RequestTrace trace;
  const auto node_count = read_le<std::uint32_t>(in, path);
  trace.node_count = static_cast<int>(node_count);  // negative past 2^31 - 1
  if (trace.node_count <= 0) {
    throw std::runtime_error("RequestTrace::load: " + path +
                             " has node count " +
                             std::to_string(node_count));
  }
  trace.epoch_cycles = read_le<std::uint64_t>(in, path);
  const auto epoch_count = read_le<std::uint64_t>(in, path);
  // Cap the pre-allocations: a corrupt count must fail on the truncated
  // read below, not on a multi-gigabyte reserve.
  constexpr std::uint64_t kReserveCap = 1 << 20;
  trace.epochs.reserve(std::min(epoch_count, kReserveCap));
  for (std::uint64_t e = 0; e < epoch_count; ++e) {
    TraceEpoch epoch;
    epoch.epoch_start = read_le<std::uint64_t>(in, path);
    epoch.allocate_cycle = read_le<std::uint64_t>(in, path);
    epoch.budget_mw = read_le<std::uint64_t>(in, path);
    const auto request_count = read_le<std::uint64_t>(in, path);
    epoch.requests.reserve(std::min(request_count, kReserveCap));
    for (std::uint64_t r = 0; r < request_count; ++r) {
      BudgetRequest req;
      req.node = read_le<std::uint32_t>(in, path);
      if (req.node >= node_count) {
        throw std::runtime_error(
            "RequestTrace::load: " + path + " names node " +
            std::to_string(req.node) + " in epoch " + std::to_string(e) +
            ", outside its " + std::to_string(node_count) + "-node mesh");
      }
      req.app = read_le<std::uint32_t>(in, path);
      req.request_mw = read_le<std::uint32_t>(in, path);
      epoch.requests.push_back(req);
    }
    trace.epochs.push_back(std::move(epoch));
  }
  // A well-formed file ends exactly at the last request.
  if (in.peek() != std::ifstream::traits_type::eof()) {
    throw std::runtime_error("RequestTrace::load: " + path +
                             " has trailing bytes after the last epoch");
  }
  return trace;
}

}  // namespace htpb::power
