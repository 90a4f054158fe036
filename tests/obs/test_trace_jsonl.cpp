#include "sdcm/obs/trace_jsonl.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

namespace sdcm::obs {
namespace {

using sim::SpanScope;
using sim::TraceCategory;
using sim::TraceLog;
using sim::TraceRecord;

TraceLog make_log() {
  TraceLog log;
  const auto root = log.record(sim::seconds(188), 10, TraceCategory::kUpdate,
                               "frodo.service_changed", "service=1 version=2");
  SpanScope scope(log, root);
  log.record(sim::seconds(188) + 37, 1, TraceCategory::kUpdate,
             "frodo.update.stored", "service=1 version=2");
  // Exercise the two backslash escapes of the JSON discipline.
  log.record(sim::seconds(189), 11, TraceCategory::kInfo, "odd",
             "quote=\" backslash=\\ done");
  // Control characters are written as \u00XX, so the line stays one line.
  log.record(sim::seconds(190), 11, TraceCategory::kInfo, "odd", "a\nb\tc");
  log.record_child(sim::kNoSpan, sim::seconds(200), 2,
                   TraceCategory::kFailure, "iface.down", "mode=tx+rx");
  return log;
}

TEST(TraceJsonl, RecordFormatsAsOneFixedOrderObject) {
  TraceRecord r;
  r.at = 42;
  r.node = 7;
  r.category = TraceCategory::kTransport;
  r.span = 3;
  r.parent = 1;
  r.event = "tcp.rex";
  r.detail = "to=2";
  EXPECT_EQ(trace_record_to_jsonl(r),
            "{\"at\":42,\"node\":7,\"category\":\"transport\",\"span\":3,"
            "\"parent\":1,\"event\":\"tcp.rex\",\"detail\":\"to=2\"}");
}

TEST(TraceJsonl, ParseInvertsFormat) {
  const TraceLog log = make_log();
  for (const TraceRecord& r : log.records()) {
    std::string error;
    const auto parsed = parse_trace_record(trace_record_to_jsonl(r), error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->at, r.at);
    EXPECT_EQ(parsed->node, r.node);
    EXPECT_EQ(parsed->category, r.category);
    EXPECT_EQ(parsed->span, r.span);
    EXPECT_EQ(parsed->parent, r.parent);
    EXPECT_EQ(parsed->event, r.event);
    EXPECT_EQ(parsed->detail, r.detail);
  }
}

TEST(TraceJsonl, ParseRejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(parse_trace_record("", error).has_value());
  EXPECT_FALSE(parse_trace_record("not json", error).has_value());
  // Unknown category name.
  EXPECT_FALSE(
      parse_trace_record(
          "{\"at\":1,\"node\":1,\"category\":\"bogus\",\"span\":1,"
          "\"parent\":0,\"event\":\"e\",\"detail\":\"\"}",
          error)
          .has_value());
  EXPECT_FALSE(error.empty());
  // Reordered keys are rejected: the format is exact, not generic JSON.
  EXPECT_FALSE(
      parse_trace_record(
          "{\"node\":1,\"at\":1,\"category\":\"info\",\"span\":1,"
          "\"parent\":0,\"event\":\"e\",\"detail\":\"\"}",
          error)
          .has_value());
  // A raw control character inside a string is not JSON.
  EXPECT_FALSE(
      parse_trace_record(
          "{\"at\":1,\"node\":1,\"category\":\"info\",\"span\":1,"
          "\"parent\":0,\"event\":\"e\",\"detail\":\"a\tb\"}",
          error)
          .has_value());
  // Trailing garbage after the closing brace.
  EXPECT_FALSE(
      parse_trace_record(
          "{\"at\":1,\"node\":1,\"category\":\"info\",\"span\":1,"
          "\"parent\":0,\"event\":\"e\",\"detail\":\"\"}x",
          error)
          .has_value());
}

TEST(TraceJsonl, NumericExtremesRoundTripByteIdentically) {
  TraceRecord low;
  low.at = std::numeric_limits<std::int64_t>::min();
  low.node = std::numeric_limits<sim::NodeId>::max();
  low.category = TraceCategory::kInfo;
  low.span = std::numeric_limits<std::uint64_t>::max();
  low.parent = std::numeric_limits<std::uint64_t>::max();
  TraceRecord high = low;
  high.at = std::numeric_limits<std::int64_t>::max();
  high.span = 0;
  high.parent = 0;
  for (const TraceRecord& r : {low, high}) {
    const std::string line = trace_record_to_jsonl(r);
    std::string error;
    const auto parsed = parse_trace_record(line, error);
    ASSERT_TRUE(parsed.has_value()) << line << ": " << error;
    EXPECT_EQ(parsed->at, r.at);
    EXPECT_EQ(parsed->span, r.span);
    EXPECT_EQ(parsed->parent, r.parent);
    EXPECT_EQ(trace_record_to_jsonl(*parsed), line);
  }
}

TEST(TraceJsonl, ParseRejectsNumbersPastTheirFieldRange) {
  const auto line = [](std::string_view at, std::string_view span,
                       std::string_view parent) {
    return "{\"at\":" + std::string(at) +
           ",\"node\":1,\"category\":\"info\",\"span\":" +
           std::string(span) + ",\"parent\":" + std::string(parent) +
           ",\"event\":\"e\",\"detail\":\"\"}";
  };
  struct Case {
    std::string text;
    std::string field;
  };
  const Case cases[] = {
      // One past INT64_MAX / INT64_MIN.
      {line("9223372036854775808", "1", "0"), "at"},
      {line("-9223372036854775809", "1", "0"), "at"},
      // Wider than 64 bits: must not wrap to a small value.
      {line("18446744073709551617", "1", "0"), "at"},
      // One past UINT64_MAX.
      {line("1", "18446744073709551616", "0"), "span"},
      {line("1", "1", "18446744073709551616"), "parent"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(parse_trace_record(c.text, error).has_value()) << c.text;
    EXPECT_NE(error.find("'" + c.field + "'"), std::string::npos)
        << c.text << ": " << error;
  }
  // The extremes themselves are accepted.
  std::string error;
  EXPECT_TRUE(parse_trace_record(line("-9223372036854775808",
                                      "18446744073709551615",
                                      "18446744073709551615"),
                                 error)
                  .has_value())
      << error;
}

TEST(TraceJsonl, WriterCountsRecordsAndBytes) {
  std::ostringstream oss;
  JsonlTraceWriter writer(oss);
  const TraceLog log = make_log();
  for (const TraceRecord& r : log.records()) writer.on_record(r);
  EXPECT_EQ(writer.records_written(), log.records().size());
  EXPECT_EQ(writer.bytes_written(), oss.str().size());
  EXPECT_EQ(oss.str().back(), '\n');
}

TEST(TraceJsonl, RoundTripReproducesFingerprintAndSpans) {
  const TraceLog log = make_log();
  std::ostringstream oss;
  JsonlTraceWriter writer(oss);
  for (const TraceRecord& r : log.records()) writer.on_record(r);

  std::istringstream in(oss.str());
  TraceLog rebuilt;
  std::string error;
  ASSERT_TRUE(read_trace_jsonl(in, rebuilt, error)) << error;
  ASSERT_EQ(rebuilt.records().size(), log.records().size());
  EXPECT_EQ(rebuilt.fingerprint(), log.fingerprint());
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    EXPECT_EQ(rebuilt.records()[i].span, log.records()[i].span);
    EXPECT_EQ(rebuilt.records()[i].parent, log.records()[i].parent);
    EXPECT_EQ(rebuilt.records()[i].detail, log.records()[i].detail);
  }
}

TEST(TraceJsonl, ReadRejectsStreamsWithBadLines) {
  std::istringstream in("{\"at\":broken\n");
  TraceLog log;
  std::string error;
  EXPECT_FALSE(read_trace_jsonl(in, log, error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceJsonl, StreamingARunMatchesItsStoredTrace) {
  // The campaign streaming mode: storage off, writer on. The JSONL file
  // read back must carry the exact fingerprint of a stored run.
  std::ostringstream oss;
  JsonlTraceWriter writer(oss);
  TraceLog streamed;
  streamed.set_store(false);
  streamed.set_writer(&writer);
  TraceLog stored;
  for (auto* log : {&streamed, &stored}) {
    const auto root = log->record(sim::seconds(1), 10,
                                  TraceCategory::kUpdate, "change");
    log->record_child(root, sim::seconds(2), 11, TraceCategory::kUpdate,
                      "notify", "user=11");
  }
  std::istringstream in(oss.str());
  TraceLog rebuilt;
  std::string error;
  ASSERT_TRUE(read_trace_jsonl(in, rebuilt, error)) << error;
  EXPECT_EQ(rebuilt.fingerprint(), stored.fingerprint());
  EXPECT_EQ(rebuilt.fingerprint(), streamed.fingerprint());
}

}  // namespace
}  // namespace sdcm::obs
