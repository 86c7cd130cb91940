// Wire-protocol codec tests: frame round-trips, incremental parsing,
// hostile-input rejection, and the STATS body encoding.

#include "src/server/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/obs/cache_stats.h"

namespace qdlp {
namespace {

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

Frame MustParse(const std::string& wire, size_t* consumed) {
  Frame frame;
  EXPECT_EQ(ParseFrame(Bytes(wire), wire.size(), &frame, consumed),
            ParseStatus::kFrame);
  return frame;
}

TEST(ServerProtocolTest, GetRequestRoundTrip) {
  std::string wire;
  AppendGetRequest(&wire, 0xDEADBEEFCAFEF00Dull);
  ASSERT_EQ(wire.size(), kFrameHeaderLen);
  size_t consumed = 0;
  const Frame frame = MustParse(wire, &consumed);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.opcode, Op::kGet);
  EXPECT_EQ(frame.status, Status::kOk);
  EXPECT_EQ(frame.key, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(frame.body_len, 0u);
}

TEST(ServerProtocolTest, SetRequestRoundTrip) {
  const std::string value = "the quick brown fox";
  std::string wire;
  AppendSetRequest(&wire, /*key=*/42, /*ttl_seconds=*/3600, value);
  size_t consumed = 0;
  const Frame frame = MustParse(wire, &consumed);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.opcode, Op::kSet);
  EXPECT_EQ(frame.key, 42u);
  ASSERT_EQ(frame.body_len, 4 + value.size());
  EXPECT_EQ(protocol_internal::LoadU32(frame.body), 3600u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(frame.body + 4),
                        frame.body_len - 4),
            value);
}

TEST(ServerProtocolTest, AllRequestKindsRoundTrip) {
  std::string wire;
  AppendDeleteRequest(&wire, 7);
  AppendStatsRequest(&wire);
  AppendPingRequest(&wire);
  const Op expected[] = {Op::kDelete, Op::kStats, Op::kPing};
  size_t offset = 0;
  for (const Op op : expected) {
    Frame frame;
    size_t consumed = 0;
    ASSERT_EQ(ParseFrame(Bytes(wire) + offset, wire.size() - offset, &frame,
                         &consumed),
              ParseStatus::kFrame);
    EXPECT_EQ(frame.opcode, op);
    EXPECT_EQ(frame.body_len, 0u);
    offset += consumed;
  }
  EXPECT_EQ(offset, wire.size());
}

TEST(ServerProtocolTest, ResponseFrameCarriesStatusAndBody) {
  std::string wire;
  const std::string body = "value-bytes\x00with-nul";
  AppendFrame(&wire, Op::kGet, Status::kMiss, 99, body.data(), body.size());
  size_t consumed = 0;
  const Frame frame = MustParse(wire, &consumed);
  EXPECT_EQ(frame.status, Status::kMiss);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(frame.body),
                        frame.body_len),
            body);
}

// Feed a valid frame one byte at a time: every prefix must be kNeedMore
// and the full buffer must parse.
TEST(ServerProtocolTest, IncrementalParseNeedsMoreOnEveryPrefix) {
  std::string wire;
  AppendSetRequest(&wire, 5, 0, "abc");
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame frame;
    size_t consumed = 0;
    EXPECT_EQ(ParseFrame(Bytes(wire), len, &frame, &consumed),
              ParseStatus::kNeedMore)
        << "prefix length " << len;
  }
  size_t consumed = 0;
  MustParse(wire, &consumed);
  EXPECT_EQ(consumed, wire.size());
}

TEST(ServerProtocolTest, OversizedBodyLenIsRejected) {
  std::string wire;
  AppendGetRequest(&wire, 1);
  const uint32_t too_big = static_cast<uint32_t>(kMaxBodyLen) + 1;
  std::memcpy(&wire[0], &too_big, 4);  // little-endian host assumption ok
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(ParseFrame(Bytes(wire), wire.size(), &frame, &consumed),
            ParseStatus::kError);
  // The doomed length must be detected from the 4-byte prefix alone —
  // before the peer is asked for more bytes it will never usefully send.
  EXPECT_EQ(ParseFrame(Bytes(wire), 4, &frame, &consumed),
            ParseStatus::kError);
  // At exactly kMaxBodyLen the header itself is acceptable.
  const uint32_t max_ok = static_cast<uint32_t>(kMaxBodyLen);
  std::memcpy(&wire[0], &max_ok, 4);
  EXPECT_EQ(ParseFrame(Bytes(wire), wire.size(), &frame, &consumed),
            ParseStatus::kNeedMore);
}

TEST(ServerProtocolTest, BadOpcodeIsRejected) {
  for (const uint8_t bad : {uint8_t{0}, uint8_t{6}, uint8_t{0xFF}}) {
    std::string wire;
    AppendGetRequest(&wire, 1);
    wire[4] = static_cast<char>(bad);
    Frame frame;
    size_t consumed = 0;
    EXPECT_EQ(ParseFrame(Bytes(wire), wire.size(), &frame, &consumed),
              ParseStatus::kError)
        << static_cast<int>(bad);
    // Early detection from the 5-byte prefix.
    EXPECT_EQ(ParseFrame(Bytes(wire), 5, &frame, &consumed),
              ParseStatus::kError)
        << static_cast<int>(bad);
  }
}

TEST(ServerProtocolTest, BadStatusAndReservedAreRejected) {
  std::string wire;
  AppendGetRequest(&wire, 1);
  wire[5] = 5;  // one past Status::kTooLarge
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(ParseFrame(Bytes(wire), wire.size(), &frame, &consumed),
            ParseStatus::kError);
  wire[5] = 0;
  wire[6] = 1;
  EXPECT_EQ(ParseFrame(Bytes(wire), wire.size(), &frame, &consumed),
            ParseStatus::kError);
  wire[6] = 0;
  wire[7] = 0x80;
  EXPECT_EQ(ParseFrame(Bytes(wire), wire.size(), &frame, &consumed),
            ParseStatus::kError);
}

TEST(ServerProtocolTest, StatsBodyRoundTrip) {
  size_t count = 0;
  const StatsWireField* fields = StatsWireFields(&count);
  CacheStats stats;
  for (size_t i = 0; i < count; ++i) {
    stats.*fields[i].member = 1000 + i * 7;  // distinct per field
  }
  const std::string body = EncodeStatsBody(stats);
  ASSERT_EQ(body.size(), 4 + count * 8);
  CacheStats decoded;
  ASSERT_TRUE(DecodeStatsBody(Bytes(body), body.size(), &decoded));
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(decoded.*fields[i].member, 1000 + i * 7) << fields[i].key;
  }
}

TEST(ServerProtocolTest, StatsBodyRejectsMalformedLengths) {
  CacheStats stats;
  const std::string body = EncodeStatsBody(CacheStats{});
  EXPECT_FALSE(DecodeStatsBody(Bytes(body), 3, &stats));
  EXPECT_FALSE(DecodeStatsBody(Bytes(body), body.size() - 1, &stats));
  EXPECT_FALSE(DecodeStatsBody(Bytes(body), body.size() + 1, &stats));
}

// A newer server may append fields: an old client reads the prefix it
// knows. A shorter (older-server) body must also decode, zero-filling the
// rest.
TEST(ServerProtocolTest, StatsBodyIsForwardAndBackwardCompatible) {
  size_t count = 0;
  StatsWireFields(&count);
  CacheStats stats;
  stats.requests = 111;
  stats.hits = 222;
  // Newer server: two extra trailing u64s.
  std::string longer = EncodeStatsBody(stats);
  longer[0] = static_cast<char>(count + 2);
  protocol_internal::AppendU64(&longer, 0xAAAA);
  protocol_internal::AppendU64(&longer, 0xBBBB);
  CacheStats decoded;
  ASSERT_TRUE(DecodeStatsBody(Bytes(longer), longer.size(), &decoded));
  EXPECT_EQ(decoded.requests, 111u);
  EXPECT_EQ(decoded.hits, 222u);
  // Older server: only the first two fields.
  std::string shorter;
  protocol_internal::AppendU32(&shorter, 2);
  protocol_internal::AppendU64(&shorter, 5);
  protocol_internal::AppendU64(&shorter, 6);
  decoded.misses = 77;  // must be reset by decode
  ASSERT_TRUE(DecodeStatsBody(Bytes(shorter), shorter.size(), &decoded));
  EXPECT_EQ(decoded.requests, 5u);
  EXPECT_EQ(decoded.hits, 6u);
  EXPECT_EQ(decoded.misses, 0u);
}

TEST(ServerProtocolTest, PipelinedFramesParseInOrder) {
  std::string wire;
  for (ObjectId key = 0; key < 64; ++key) {
    if (key % 3 == 0) {
      AppendSetRequest(&wire, key, 0, std::string(key, 'x'));
    } else {
      AppendGetRequest(&wire, key);
    }
  }
  size_t offset = 0;
  ObjectId key = 0;
  while (offset < wire.size()) {
    Frame frame;
    size_t consumed = 0;
    ASSERT_EQ(ParseFrame(Bytes(wire) + offset, wire.size() - offset, &frame,
                         &consumed),
              ParseStatus::kFrame);
    EXPECT_EQ(frame.key, key);
    EXPECT_EQ(frame.opcode, key % 3 == 0 ? Op::kSet : Op::kGet);
    offset += consumed;
    ++key;
  }
  EXPECT_EQ(key, 64u);
}

}  // namespace
}  // namespace qdlp
