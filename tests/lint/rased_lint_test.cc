#include "lint.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace rased_lint {
namespace {

// Each fixture under tests/lint/fixtures/ marks every line where it
// expects a finding with one "WANT[RLxxx]" token per expected finding.
// The driver lints the fixture under a synthetic src/ repo path (so the
// src-scoped observability rules apply) and requires the finding multiset
// to equal the marker multiset exactly — no misses, no extras.

std::string FixturePath(const std::string& name) {
  return std::string(RASED_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

using LineRule = std::pair<int, std::string>;  // (line, "RLxxx")

std::vector<LineRule> ParseWants(const std::string& contents) {
  std::vector<LineRule> wants;
  std::istringstream in(contents);
  std::string text;
  for (int line = 1; std::getline(in, text); ++line) {
    size_t at = 0;
    while ((at = text.find("WANT[", at)) != std::string::npos) {
      size_t close = text.find(']', at);
      if (close == std::string::npos) break;
      wants.emplace_back(line, text.substr(at + 5, close - at - 5));
      at = close;
    }
  }
  std::sort(wants.begin(), wants.end());
  return wants;
}

std::vector<LineRule> Lint(const std::string& name, LintStats* stats) {
  std::string contents = ReadFixture(name);
  std::vector<Finding> findings =
      LintFile(name, "src/fixtures/" + name, contents, stats);
  std::vector<LineRule> got;
  for (const Finding& finding : findings) {
    got.emplace_back(finding.line, finding.rule_id);
  }
  std::sort(got.begin(), got.end());
  return got;
}

void ExpectMatchesMarkers(const std::string& name) {
  LintStats stats;
  std::vector<LineRule> got = Lint(name, &stats);
  std::vector<LineRule> want = ParseWants(ReadFixture(name));
  ASSERT_FALSE(want.empty()) << name << " has no WANT markers";
  EXPECT_EQ(got, want) << "finding mismatch in " << name;
  EXPECT_EQ(stats.suppressed, 0) << name;
}

TEST(RasedLintTest, RawMutex) { ExpectMatchesMarkers("raw_mutex.cc"); }

TEST(RasedLintTest, GuardedField) {
  ExpectMatchesMarkers("guarded_field.h");
}

TEST(RasedLintTest, BlockingUnderLock) {
  ExpectMatchesMarkers("blocking_under_lock.cc");
}

TEST(RasedLintTest, StatusDiscard) {
  ExpectMatchesMarkers("status_discard.cc");
}

TEST(RasedLintTest, NodiscardType) {
  ExpectMatchesMarkers("nodiscard_type.h");
}

TEST(RasedLintTest, MetricName) { ExpectMatchesMarkers("metric_name.cc"); }

TEST(RasedLintTest, MetricInLoop) {
  ExpectMatchesMarkers("metric_in_loop.cc");
}

TEST(RasedLintTest, BannedFunction) {
  ExpectMatchesMarkers("banned_function.cc");
}

TEST(RasedLintTest, IncludeOrder) {
  ExpectMatchesMarkers("include_order.cc");
}

TEST(RasedLintTest, HeaderGuard) { ExpectMatchesMarkers("header_guard.h"); }

TEST(RasedLintTest, BadNolint) { ExpectMatchesMarkers("bad_nolint.cc"); }

TEST(RasedLintTest, SnapshotMember) {
  ExpectMatchesMarkers("snapshot_member.h");
}

TEST(RasedLintTest, VendorIntrinsics) {
  ExpectMatchesMarkers("vendor_intrinsics.cc");
}

TEST(RasedLintTest, RawWallClock) { ExpectMatchesMarkers("wall_clock.cc"); }

TEST(RasedLintTest, SignalHandlerSafety) {
  ExpectMatchesMarkers("signal_handler.cc");
}

// The ISA-flagged kernel files are exempt by exact path, and only they.
TEST(RasedLintTest, VendorIntrinsicsAllowedInKernelTu) {
  std::string contents = ReadFixture("vendor_intrinsics.cc");
  EXPECT_TRUE(LintFile("agg_kernels_avx2.cc", "src/cube/agg_kernels_avx2.cc",
                       contents)
                  .empty());
  EXPECT_TRUE(LintFile("crc32c_sse42.cc", "src/io/crc32c_sse42.cc",
                       ReadFixture("crc_intrinsics.cc"))
                  .empty());
}

// CRC intrinsics anywhere else in src/io still fire: the exemption is the
// one file, not the directory.
TEST(RasedLintTest, CrcIntrinsicsOutsideKernelFileFire) {
  std::string contents = ReadFixture("crc_intrinsics.cc");
  std::vector<LineRule> want = ParseWants(contents);
  ASSERT_FALSE(want.empty());
  for (const char* path : {"src/io/crc32c.cc", "src/io/page_file.cc",
                           "src/io/crc32c_sse42_extra.cc"}) {
    std::vector<LineRule> got;
    for (const Finding& finding : LintFile("crc_intrinsics.cc", path,
                                           contents)) {
      // Only RL013 is under test; the path also changes which header
      // include-order rules expect first.
      if (finding.rule_id == "RL013") {
        got.emplace_back(finding.line, finding.rule_id);
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << path;
  }
}

TEST(RasedLintTest, ValidNolintSuppresses) {
  LintStats stats;
  EXPECT_TRUE(Lint("suppressed.cc", &stats).empty());
  EXPECT_EQ(stats.suppressed, 2);
}

TEST(RasedLintTest, CleanFilesPass) {
  for (const char* name : {"clean.h", "clean.cc"}) {
    LintStats stats;
    EXPECT_TRUE(Lint(name, &stats).empty()) << name;
    EXPECT_EQ(stats.suppressed, 0) << name;
  }
}

// The observability rules are scoped to production code: the same fixture
// linted under a tests/ path reports nothing.
TEST(RasedLintTest, MetricRulesOnlyApplyUnderSrc) {
  std::string contents = ReadFixture("metric_name.cc");
  EXPECT_TRUE(
      LintFile("metric_name.cc", "tests/fixtures/metric_name.cc", contents)
          .empty());
}

TEST(RasedLintTest, RuleTableIsOrderedAndUnique) {
  std::set<std::string> ids;
  std::set<std::string> names;
  std::string prev;
  for (const RuleInfo& rule : Rules()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << rule.id;
    EXPECT_TRUE(names.insert(rule.name).second) << rule.name;
    EXPECT_LT(prev, rule.id);
    prev = rule.id;
  }
  EXPECT_EQ(ids.size(), 15u);
}

}  // namespace
}  // namespace rased_lint
