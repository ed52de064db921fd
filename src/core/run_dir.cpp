#include "core/run_dir.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

#include "common/atomic_file.hpp"

namespace htpb::core {

namespace {

void mkdir_p(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw std::runtime_error("RunDir: cannot create " + path + ": " +
                           std::strerror(errno));
}

[[nodiscard]] bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

std::string fingerprint(std::string_view text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

RunDir::RunDir(std::string root) : root_(std::move(root)) {
  if (root_.empty()) {
    throw std::runtime_error("RunDir: empty root path");
  }
  while (root_.size() > 1 && root_.back() == '/') root_.pop_back();
}

void RunDir::ensure_layout() const {
  // mkdir -p for the root itself, one component at a time.
  for (std::size_t i = 1; i < root_.size(); ++i) {
    if (root_[i] == '/') mkdir_p(root_.substr(0, i));
  }
  mkdir_p(root_);
  for (const char* sub : {"cells", "results", "status", "logs", "quarantine"}) {
    mkdir_p(root_ + "/" + sub);
  }
}

std::string RunDir::manifest_path() const { return root_ + "/MANIFEST.json"; }

bool RunDir::has_manifest() const { return file_exists(manifest_path()); }

json::Value RunDir::load_manifest() const {
  return json::parse_file(manifest_path());
}

void RunDir::write_manifest(const json::Value& manifest) const {
  json::dump_file(manifest, manifest_path(), 2);
}

std::string RunDir::spec_path() const { return root_ + "/spec.json"; }

std::string RunDir::cell_spec_path(const std::string& id) const {
  return root_ + "/cells/" + id + ".json";
}

std::string RunDir::result_path(const std::string& id) const {
  return root_ + "/results/" + id + ".json";
}

std::string RunDir::status_path(const std::string& id) const {
  return root_ + "/status/" + id + ".json";
}

std::string RunDir::stdout_path(const std::string& id) const {
  return root_ + "/logs/" + id + ".stdout";
}

std::string RunDir::stderr_path(const std::string& id) const {
  return root_ + "/logs/" + id + ".stderr";
}

std::string RunDir::quarantine_path(const std::string& id, int attempt) const {
  return root_ + "/quarantine/" + id + ".attempt" + std::to_string(attempt) +
         ".json";
}

std::string RunDir::merged_path() const { return root_ + "/merged.json"; }

std::optional<CellStatus> RunDir::load_status(const std::string& id) const {
  const std::string path = status_path(id);
  if (!file_exists(path)) return std::nullopt;
  try {
    const json::Value v = json::parse_file(path);
    const json::Object& o = v.as_object();
    const json::Value* state = o.find("state");
    const json::Value* fp = o.find("fingerprint");
    const json::Value* attempts = o.find("attempts");
    if (state == nullptr || fp == nullptr || attempts == nullptr) {
      return std::nullopt;
    }
    CellStatus status;
    status.state = state->as_string();
    status.fingerprint = fp->as_string();
    status.attempts = static_cast<int>(attempts->as_int());
    if (const json::Value* r = o.find("fail_reason")) {
      status.fail_reason = r->as_string();
    }
    if (const json::Value* e = o.find("last_error")) {
      status.last_error = e->as_string();
    }
    if (status.state != "done" && status.state != "failed") return std::nullopt;
    return status;
  } catch (const std::exception&) {
    // A torn or stale status file is indistinguishable from "never ran";
    // the scheduler just re-runs the cell.
    return std::nullopt;
  }
}

void RunDir::write_status(const std::string& id,
                          const CellStatus& status) const {
  json::Object o;
  o["state"] = json::Value(status.state);
  o["fingerprint"] = json::Value(status.fingerprint);
  o["attempts"] = json::Value(static_cast<long long>(status.attempts));
  if (!status.fail_reason.empty()) {
    o["fail_reason"] = json::Value(status.fail_reason);
  }
  if (!status.last_error.empty()) {
    o["last_error"] = json::Value(status.last_error);
  }
  json::dump_file(json::Value(std::move(o)), status_path(id), 2);
}

std::size_t RunDir::remove_cells_except(
    const std::vector<std::string>& ids) const {
  const std::unordered_set<std::string> live(ids.begin(), ids.end());
  std::size_t removed = 0;
  for (const char* sub : {"cells", "results", "status"}) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(root_ + "/" + sub, ec)) {
      const std::filesystem::path& path = entry.path();
      if (path.extension() != ".json" ||
          live.count(path.stem().string()) != 0) {
        continue;
      }
      if (!std::filesystem::remove(path, ec) || ec) {
        throw std::runtime_error("RunDir: cannot remove " + path.string() +
                                 ": " + ec.message());
      }
      ++removed;
    }
  }
  return removed;
}

void RunDir::quarantine_result(const std::string& id, int attempt) const {
  const std::string src = result_path(id);
  if (!file_exists(src)) return;
  const std::string dst = quarantine_path(id, attempt);
  if (::rename(src.c_str(), dst.c_str()) != 0) {
    throw std::runtime_error("RunDir: cannot quarantine " + src + ": " +
                             std::strerror(errno));
  }
}

}  // namespace htpb::core
