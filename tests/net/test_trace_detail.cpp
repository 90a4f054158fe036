// Lazy trace details: the pieces a trace site passes are formatted only
// while the log records, and then spell exactly what the string
// concatenations they replaced spelled, so golden fingerprints hold.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "sdcm/net/message_type.hpp"
#include "sdcm/sim/trace.hpp"

namespace sdcm::net {
namespace {

using sim::TraceCategory;
using sim::TraceLog;

/// A detail piece whose formatting is observable: every str() counts.
struct CountingPiece {
  static inline int formatted = 0;
  [[nodiscard]] std::string_view str() const {
    ++formatted;
    return "counted";
  }
};

TEST(TraceDetail, PiecesAreNotFormattedWhileRecordingIsOff) {
  TraceLog log;
  log.set_recording(false);
  CountingPiece::formatted = 0;
  EXPECT_EQ(log.record(1, 1, TraceCategory::kInfo, "tag", "k=",
                       CountingPiece{}, " n=", 42),
            sim::kNoSpan);
  EXPECT_EQ(log.record_child(7, 2, 1, TraceCategory::kInfo, "tag",
                             CountingPiece{}),
            sim::kNoSpan);
  EXPECT_EQ(CountingPiece::formatted, 0);
  EXPECT_EQ(log.appended(), 0u);

  log.set_recording(true);
  log.record(3, 1, TraceCategory::kInfo, "tag", "k=", CountingPiece{});
  EXPECT_EQ(CountingPiece::formatted, 1);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].detail, "k=counted");
}

TEST(TraceDetail, RecordedBytesEqualTheOldConcatenations) {
  const sim::NodeId user = 4294967295u;
  const std::uint64_t version = 18446744073709551615ull;
  const int epoch = -3;
  const std::uint16_t small = 7;
  const char* reason = "lease-expired";
  const std::string_view mode = "both";
  const std::string owned = "owned";
  const MessageType type = MessageType::intern("trace.detail.Update");
  const bool inserted = false;

  TraceLog pieces;
  TraceLog concatenated;
  const auto both = [&](std::string_view event, const std::string& old,
                        const auto&... detail) {
    pieces.record(5, 1, TraceCategory::kUpdate, event, detail...);
    concatenated.record(5, 1, TraceCategory::kUpdate, event, old);
    EXPECT_EQ(pieces.records().back().detail, old) << event;
  };
  both("ints", "user=" + std::to_string(user) + " version=" +
                   std::to_string(version) + " epoch=" +
                   std::to_string(epoch) + " small=" + std::to_string(small),
       "user=", user, " version=", version, " epoch=", epoch, " small=",
       small);
  both("reason", "user=" + std::to_string(user) + " reason=" + reason,
       "user=", user, " reason=", reason);
  both("string_view", std::string(mode), mode);
  both("string", "x=" + owned, "x=", owned);
  both("atom", std::string(type.str()), type);
  both("ternary",
       "version=" + std::to_string(version) + (inserted ? " new" : " refresh"),
       "version=", version, inserted ? " new" : " refresh");
  both("time", "silence=" + sim::format_time(sim::seconds(90)), "silence=",
       sim::TimeDetail{sim::seconds(90)});
  both("empty", "");
  EXPECT_EQ(pieces.fingerprint(), concatenated.fingerprint());
}

}  // namespace
}  // namespace sdcm::net
