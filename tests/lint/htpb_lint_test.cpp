// End-to-end tests for tools/htpb_lint: every rule fires at the expected
// line on its fixture, suppression comments/files silence it, and the
// real tree lints clean (the same gate CI enforces).
//
// The binary path, fixture dir and repo root are baked in by CMake.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace {

using htpb::json::Value;

struct LintRun {
  int exit_code = -1;
  Value report;  // parsed --json output
};

/// Runs htpb_lint with `args` plus `--json -`, captures stdout, returns
/// the exit code and the parsed JSON report. Human-readable violation
/// lines precede the JSON blob on stdout; the report starts at the first
/// '{' at column 0.
LintRun run_lint(const std::string& args) {
  const std::string cmd =
      std::string(HTPB_LINT_BINARY) + " --json - " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  LintRun r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  const std::size_t brace = out.find("\n{");
  const std::size_t start =
      !out.empty() && out[0] == '{' ? 0
      : brace == std::string::npos  ? std::string::npos
                                    : brace + 1;
  EXPECT_NE(start, std::string::npos) << "no JSON report in output of " << cmd;
  if (start != std::string::npos) {
    r.report = htpb::json::parse(
        std::string_view(out).substr(start));
  }
  return r;
}

const Value& get(const htpb::json::Object& o, std::string_view key) {
  const Value* v = o.find(key);
  EXPECT_NE(v, nullptr) << "missing report key " << key;
  static const Value null;
  return v ? *v : null;
}

/// (file, line, rule) triples from a report.
std::set<std::tuple<std::string, int, std::string>> violations(
    const LintRun& r) {
  std::set<std::tuple<std::string, int, std::string>> v;
  for (const Value& o : get(r.report.as_object(), "violations").as_array()) {
    const auto& obj = o.as_object();
    v.emplace(get(obj, "file").as_string(),
              static_cast<int>(get(obj, "line").as_int()),
              get(obj, "rule").as_string());
  }
  return v;
}

int suppressed(const LintRun& r) {
  return static_cast<int>(get(r.report.as_object(), "suppressed").as_int());
}

std::string fixture_args(const std::string& file) {
  return std::string("--root ") + HTPB_LINT_FIXTURE_DIR +
         " --no-default-suppressions " + file;
}

TEST(HtpbLint, UnorderedIterFiresAndInlineAllowSilences) {
  const LintRun r = run_lint(fixture_args("unordered_iter.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(violations(r),
            (std::set<std::tuple<std::string, int, std::string>>{
                {"unordered_iter.cpp", 14, "unordered-iter"},
                {"unordered_iter.cpp", 26, "unordered-iter"}}));
  EXPECT_EQ(suppressed(r), 1);  // the allow()-marked loop
}

TEST(HtpbLint, NondetCallFiresOnEverySourceKind) {
  const LintRun r = run_lint(fixture_args("nondet_call.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(violations(r),
            (std::set<std::tuple<std::string, int, std::string>>{
                {"nondet_call.cpp", 12, "nondet-call"},   // random_device
                {"nondet_call.cpp", 13, "nondet-call"},   // rand()
                {"nondet_call.cpp", 17, "nondet-call"},   // time()
                {"nondet_call.cpp", 21, "nondet-call"}}));  // clock::now()
  EXPECT_EQ(suppressed(r), 1);  // the allow()-marked timing helper
}

TEST(HtpbLint, PtrKeyContainerFiresOnPointerKeysOnly) {
  const LintRun r = run_lint(fixture_args("ptr_key.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  // by_id_ (pointer VALUES, id keys) must not fire.
  EXPECT_EQ(violations(r),
            (std::set<std::tuple<std::string, int, std::string>>{
                {"ptr_key.cpp", 16, "ptr-key-container"},
                {"ptr_key.cpp", 17, "ptr-key-container"}}));
  EXPECT_EQ(suppressed(r), 1);
}

TEST(HtpbLint, UninitPodFiresOnlyWithoutAnyInitializer) {
  const LintRun r = run_lint(fixture_args("uninit_pod.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  // good_count_ (= init), good_cycles_ ({} init), not_pod_ (vector) and
  // ctor_inited_ (mem-init list) must all stay silent.
  EXPECT_EQ(violations(r),
            (std::set<std::tuple<std::string, int, std::string>>{
                {"uninit_pod.cpp", 16, "uninit-pod-member"},
                {"uninit_pod.cpp", 17, "uninit-pod-member"}}));
}

TEST(HtpbLint, SnapshotCompleteCatchesDeliberatelyOmittedMember) {
  const LintRun r = run_lint(fixture_args("snapshot_complete.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  // saved_a_/saved_b_ appear in the bodies; wiring_ is snapshot-exempt;
  // only the deliberately omitted dropped_ fires.
  EXPECT_EQ(violations(r),
            (std::set<std::tuple<std::string, int, std::string>>{
                {"snapshot_complete.cpp", 20, "snapshot-complete"}}));
  EXPECT_EQ(suppressed(r), 1);
}

TEST(HtpbLint, SuppressionFileSilencesByPathWithReason) {
  const std::string supp =
      std::string(HTPB_LINT_TEST_TMPDIR) + "/fixture_supp.txt";
  {
    std::ofstream f(supp);
    f << "nondet-call nondet_call.cpp fixture: whole file is a timing "
         "fixture\n";
  }
  const LintRun r = run_lint(fixture_args("nondet_call.cpp") +
                             " --suppressions " + supp);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(violations(r).empty());
  EXPECT_EQ(suppressed(r), 5);  // 4 file-suppressed + 1 inline allow
}

TEST(HtpbLint, SuppressionWithoutReasonIsConfigError) {
  const std::string supp =
      std::string(HTPB_LINT_TEST_TMPDIR) + "/fixture_supp_bad.txt";
  {
    std::ofstream f(supp);
    f << "nondet-call nondet_call.cpp\n";  // reason missing
  }
  const LintRun r = run_lint(fixture_args("nondet_call.cpp") +
                             " --suppressions " + supp);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(get(r.report.as_object(), "errors").as_array().empty());
}

TEST(HtpbLint, SeedProvenanceFiresAcrossDigitSeparators) {
  const LintRun r = run_lint(fixture_args("seed_provenance.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  // Line 23 sits after a 300'000 literal: the digit separator used to be
  // mis-lexed as a char-literal quote, swallowing the rest of the file
  // and hiding this site. The seed-derived constructor stays silent.
  EXPECT_EQ(violations(r),
            (std::set<std::tuple<std::string, int, std::string>>{
                {"seed_provenance.cpp", 17, "seed-provenance"},
                {"seed_provenance.cpp", 23, "seed-provenance"}}));
  EXPECT_EQ(suppressed(r), 1);  // the allow()-marked pinned demo seed
}

TEST(HtpbLint, FloatUnorderedReduceRequiresFloatEvidence) {
  const LintRun r = run_lint(fixture_args("float_reduce.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  // The double `+=` and the 0.0-seeded accumulate fire; the integer
  // accumulators are silent.
  EXPECT_EQ(violations(r),
            (std::set<std::tuple<std::string, int, std::string>>{
                {"float_reduce.cpp", 22, "float-unordered-reduce"},
                {"float_reduce.cpp", 47, "float-unordered-reduce"}}));
  // 3 unordered-iter allows on the loops + 1 float-unordered-reduce.
  EXPECT_EQ(suppressed(r), 4);
}

TEST(HtpbLint, LayeringBackEdgeAndCycleFire) {
  const std::string dir = std::string(HTPB_LINT_FIXTURE_DIR) + "/layers";
  const LintRun r = run_lint("--root " + dir + " --layers " + dir +
                             "/layers.txt --no-default-suppressions");
  EXPECT_EQ(r.exit_code, 1);
  // common -> noc is a back-edge; ring_a <-> ring_b is a cycle; the
  // legal downward include noc -> common stays silent.
  EXPECT_EQ(violations(r),
            (std::set<std::tuple<std::string, int, std::string>>{
                {"src/common/bad.hpp", 4, "layer-violation"},
                {"src/noc/ring_b.hpp", 4, "layer-cycle"}}));
}

/// The gate CI enforces: the real tree, with the checked-in suppression
/// file, is clean. A regression here means a new violation slipped in
/// without a reasoned suppression.
TEST(HtpbLint, RealTreeIsClean) {
  const LintRun r =
      run_lint(std::string("--root ") + HTPB_REPO_ROOT);
  EXPECT_EQ(r.exit_code, 0) << htpb::json::dump(r.report, 2);
  EXPECT_TRUE(violations(r).empty());
  EXPECT_GT(suppressed(r), 0);  // the reasoned exemptions are in effect
}

}  // namespace
