#include "cli/cli.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dashboard/dashboard_service.h"
#include "io/env.h"
#include "test_helpers.h"
#include "util/date.h"

namespace rased {
namespace {

/// Runs the CLI with the given words, capturing stdout.
int RunRased(const std::vector<std::string>& words, std::string* out = nullptr) {
  std::vector<const char*> argv = {"rased"};
  for (const std::string& w : words) argv.push_back(w.c_str());
  ::testing::internal::CaptureStdout();
  int code = RunCli(static_cast<int>(argv.size()), argv.data());
  std::string captured = ::testing::internal::GetCapturedStdout();
  if (out != nullptr) *out = captured;
  return code;
}

class CliTest : public ::testing::Test {
 protected:
  std::string Dir(const std::string& name) {
    return env::JoinPath(dir_.path(), name);
  }

  TempDir dir_{"cli-test"};
};

TEST_F(CliTest, HelpAndUsage) {
  std::string out;
  EXPECT_EQ(RunRased({"help"}, &out), 0);
  EXPECT_NE(out.find("usage: rased"), std::string::npos);
  EXPECT_NE(RunRased({}), 0);
  EXPECT_NE(RunRased({"frobnicate"}), 0);
}

TEST_F(CliTest, InitCreatesSelfDescribingInstance) {
  std::string out;
  EXPECT_EQ(RunRased({"init", "dir=" + Dir("inst"), "schema=bench", "levels=3"},
                &out),
            0);
  EXPECT_NE(out.find("initialized RASED"), std::string::npos);
  EXPECT_TRUE(env::FileExists(env::JoinPath(Dir("inst"), "rased.meta")));

  // stats works on a freshly initialized, empty instance.
  EXPECT_EQ(RunRased({"stats", "dir=" + Dir("inst")}, &out), 0);
  EXPECT_NE(out.find("3 x 64 x 32 x 4"), std::string::npos);
}

TEST_F(CliTest, InitRejectsBadArguments) {
  EXPECT_NE(RunRased({"init"}), 0);
  EXPECT_NE(RunRased({"init", "dir=" + Dir("x"), "schema=galactic"}), 0);
}

TEST_F(CliTest, FullPipelineThroughCli) {
  std::string inst = Dir("pipeline");
  std::string files = Dir("files");
  ASSERT_EQ(RunRased({"init", "dir=" + inst, "schema=bench"}), 0);
  ASSERT_EQ(RunRased({"synth", "dir=" + files, "schema=bench", "from=2021-05-01",
                 "to=2021-05-03", "rate=60"}),
            0);
  for (const char* day : {"2021-05-01", "2021-05-02", "2021-05-03"}) {
    ASSERT_EQ(
        RunRased({"ingest-day", "dir=" + inst, std::string("date=") + day,
             "osc=" + env::JoinPath(files, std::string(day) + ".osc"),
             "changesets=" +
                 env::JoinPath(files, std::string(day) + ".changesets.xml")}),
        0)
        << day;
  }

  std::string out;
  EXPECT_EQ(RunRased({"stats", "dir=" + inst}, &out), 0);
  EXPECT_NE(out.find("3 daily"), std::string::npos);

  EXPECT_EQ(RunRased({"query", "dir=" + inst, "group=country", "format=table"},
                &out),
            0);
  EXPECT_NE(out.find("count"), std::string::npos);
  EXPECT_NE(out.find("United States"), std::string::npos);

  EXPECT_EQ(RunRased({"query", "dir=" + inst, "group=country",
                 "countries=Germany", "format=json"},
                &out),
            0);
  EXPECT_NE(out.find("\"country\":\"Germany\""), std::string::npos);

  // The CLI and /api/query share one format table: choropleth renders,
  // and an unknown name fails with the text /api/query returns as a 400.
  EXPECT_EQ(RunRased({"query", "dir=" + inst, "group=country",
                      "format=choropleth"},
                     &out),
            0);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 30) << out;  // rows
  EXPECT_NE(out.find('@'), std::string::npos) << out;  // the busiest zone
  ::testing::internal::CaptureStderr();
  EXPECT_NE(RunRased({"query", "dir=" + inst, "format=nope"}, &out), 0);
  const std::string error = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(error.find("InvalidArgument: unknown format 'nope'"),
            std::string::npos)
      << error;
  EXPECT_TRUE(out.empty()) << out;

  EXPECT_EQ(RunRased({"sample", "dir=" + inst, "box=-90,-180,90,180", "n=5"},
                &out),
            0);
  EXPECT_NE(out.find("cs="), std::string::npos);
}

TEST_F(CliTest, MonthlyIngestThroughCli) {
  std::string inst = Dir("monthly");
  std::string files = Dir("monthly-files");
  ASSERT_EQ(RunRased({"init", "dir=" + inst, "schema=bench"}), 0);
  ASSERT_EQ(RunRased({"synth", "dir=" + files, "schema=bench", "from=2021-02-01",
                 "to=2021-02-28", "rate=40"}),
            0);
  for (Date d = Date::FromYmd(2021, 2, 1); d <= Date::FromYmd(2021, 2, 28);
       d = d.next()) {
    ASSERT_EQ(
        RunRased({"ingest-day", "dir=" + inst, "date=" + d.ToString(),
             "osc=" + env::JoinPath(files, d.ToString() + ".osc"),
             "changesets=" +
                 env::JoinPath(files, d.ToString() + ".changesets.xml")}),
        0);
  }
  ASSERT_EQ(
      RunRased({"ingest-month", "dir=" + inst, "month=2021-02-01",
           "history=" + env::JoinPath(files, "2021-02.history.xml"),
           "changesets=" +
               env::JoinPath(files, "2021-02.history-changesets.xml")}),
      0);
  std::string out;
  EXPECT_EQ(RunRased({"query", "dir=" + inst, "group=update_type"}, &out), 0);
  // Four update types after the monthly pass.
  EXPECT_NE(out.find("delete"), std::string::npos);
  EXPECT_NE(out.find("metadata"), std::string::npos);
}

TEST_F(CliTest, SqlQueryThroughCli) {
  std::string inst = Dir("sqlq");
  std::string files = Dir("sqlq-files");
  ASSERT_EQ(RunRased({"init", "dir=" + inst, "schema=bench"}), 0);
  ASSERT_EQ(RunRased({"synth", "dir=" + files, "schema=bench",
                      "from=2021-04-01", "to=2021-04-02", "rate=50"}),
            0);
  for (const char* day : {"2021-04-01", "2021-04-02"}) {
    ASSERT_EQ(
        RunRased({"ingest-day", "dir=" + inst, std::string("date=") + day,
                  "osc=" + env::JoinPath(files, std::string(day) + ".osc"),
                  "changesets=" + env::JoinPath(
                                      files, std::string(day) +
                                                 ".changesets.xml")}),
        0);
  }
  std::string out;
  EXPECT_EQ(RunRased({"query", "dir=" + inst,
                      "sql=SELECT Country, COUNT(*) FROM UpdateList "
                      "WHERE Date BETWEEN 2021-04-01 AND 2021-04-02 "
                      "GROUP BY Country",
                      "format=csv"},
                     &out),
            0);
  EXPECT_NE(out.find("country,count"), std::string::npos);
  EXPECT_NE(RunRased({"query", "dir=" + inst, "sql=SELEKT oops"}), 0);
}

TEST_F(CliTest, ReplicationSyncThroughCli) {
  std::string inst = Dir("sync");
  std::string feed = Dir("sync-feed");
  ASSERT_EQ(RunRased({"init", "dir=" + inst, "schema=bench"}), 0);
  ASSERT_EQ(RunRased({"synth", "publish=" + feed, "schema=bench",
                      "from=2021-06-01", "to=2021-06-03", "rate=40"}),
            0);
  std::string out;
  ASSERT_EQ(RunRased({"sync", "dir=" + inst, "feed=" + feed}, &out), 0);
  // Trailing day held back: 2 of 3 days ingested.
  EXPECT_NE(out.find("2 day(s)"), std::string::npos);
  ASSERT_EQ(RunRased({"sync", "dir=" + inst, "feed=" + feed, "finalize=1"},
                     &out),
            0);
  EXPECT_EQ(RunRased({"stats", "dir=" + inst}, &out), 0);
  EXPECT_NE(out.find("3 daily"), std::string::npos);
}

TEST_F(CliTest, QueryRejectsUnknownCountry) {
  std::string inst = Dir("badquery");
  ASSERT_EQ(RunRased({"init", "dir=" + inst, "schema=bench"}), 0);
  EXPECT_NE(RunRased({"query", "dir=" + inst, "countries=Narnia"}), 0);
}

TEST_F(CliTest, SampleRequiresSelector) {
  std::string inst = Dir("badsample");
  ASSERT_EQ(RunRased({"init", "dir=" + inst, "schema=bench"}), 0);
  EXPECT_NE(RunRased({"sample", "dir=" + inst}), 0);
}

TEST_F(CliTest, OpenMissingInstanceFails) {
  EXPECT_NE(RunRased({"stats", "dir=" + Dir("nonexistent")}), 0);
  EXPECT_NE(RunRased({"query"}), 0);  // no dir at all
}

TEST_F(CliTest, TopRendersOneFrameFromLiveSelfstats) {
  // `top` is a pure HTTP client, so it can poll a service hosted in-process.
  // The default dashboard options start the sampler, whose first sample is
  // synchronous — one frame is renderable immediately.
  auto rased = testing_helpers::MakePopulatedRased(Dir("top-instance"));
  ASSERT_NE(rased, nullptr);
  DashboardService service(rased.get());
  ASSERT_TRUE(service.Start(0).ok());

  std::string out;
  EXPECT_EQ(RunRased({"top", "port=" + std::to_string(service.port()),
                      "window=60", "iterations=1"},
                     &out),
            0);
  EXPECT_NE(out.find("rased top"), std::string::npos) << out;
  EXPECT_NE(out.find("sample(s) retained"), std::string::npos) << out;
  EXPECT_NE(out.find("http"), std::string::npos);
  EXPECT_NE(out.find("sampler"), std::string::npos);
  // The default SLO objectives render with their idle status.
  EXPECT_NE(out.find("query_latency_p99"), std::string::npos) << out;
  EXPECT_NE(out.find("http_error_rate"), std::string::npos) << out;
  // Single-frame mode is scriptable: no ANSI clear sequence.
  EXPECT_EQ(out.find("\x1b["), std::string::npos);
  service.Stop();

  EXPECT_NE(RunRased({"top"}), 0);  // port= is required
}

}  // namespace
}  // namespace rased
