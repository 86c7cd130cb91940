// End-to-end qdlpd tests over real loopback sockets: basic ops,
// pipelining, error handling, and the ISSUE acceptance differential —
// the same operation sequence driven over the wire and in-process must
// leave byte-identical CacheStats.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_api.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace qdlp {
namespace {

// The lock-free designs MakeCache serves values from; qdlpd's own default
// is the first.
constexpr const char* kValueDesigns[] = {
    "concurrent-qdlp-fifo", "concurrent-clock", "concurrent-s3fifo"};

QdlpdOptions SmallServerOptions(const char* policy = kValueDesigns[0]) {
  QdlpdOptions options;
  options.cache.policy = policy;
  options.port = 0;  // ephemeral
  options.num_workers = 1;
  options.cache.capacity = 1024;
  options.cache.num_stripes = 8;
  options.cache.num_shards = 1;
  options.cache.value_arena_bytes = 4 << 20;
  options.cache.max_value_len = 64 << 10;
  return options;
}

class ServerE2eTest : public ::testing::Test {
 protected:
  void StartServer(const QdlpdOptions& options) {
    server_ = std::make_unique<QdlpdServer>(options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  std::unique_ptr<QdlpdServer> server_;
};

TEST_F(ServerE2eTest, PingAndStats) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  EXPECT_TRUE(client.Ping());
  CacheStats stats;
  ASSERT_TRUE(client.GetStats(&stats));
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.size, 0u);
}

TEST_F(ServerE2eTest, GetSetDeleteOverLoopback) {
  for (const char* policy : kValueDesigns) {
    StartServer(SmallServerOptions(policy));
    QdlpdClient client;
    ASSERT_TRUE(client.Connect(server_->port())) << policy;

    std::string value;
    EXPECT_EQ(client.Get(1, &value), Status::kMiss) << policy;
    EXPECT_EQ(client.Set(1, /*ttl_seconds=*/0, "hello over the wire"),
              Status::kOk)
        << policy;
    EXPECT_EQ(client.Get(1, &value), Status::kOk) << policy;
    EXPECT_EQ(value, "hello over the wire") << policy;

    // Binary-safe values, including NULs and a multi-KiB payload.
    std::string binary(4096, '\0');
    for (size_t i = 0; i < binary.size(); ++i) {
      binary[i] = static_cast<char>(i * 31);
    }
    EXPECT_EQ(client.Set(2, 0, binary), Status::kOk) << policy;
    EXPECT_EQ(client.Get(2, &value), Status::kOk) << policy;
    EXPECT_EQ(value, binary) << policy;

    EXPECT_EQ(client.Delete(1), Status::kOk) << policy;
    EXPECT_EQ(client.Delete(1), Status::kMiss) << policy;
    EXPECT_EQ(client.Get(1, &value), Status::kMiss) << policy;

    CacheStats stats;
    ASSERT_TRUE(client.GetStats(&stats)) << policy;
    EXPECT_EQ(stats.size, 1u) << policy;  // only key 2 remains
    server_->cache().CheckInvariants();
    server_->Stop();
  }
}

TEST_F(ServerE2eTest, PipelinedBatchPreservesOrder) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Fewer keys than the 10% probation FIFO (102 slots at capacity 1024):
  // a never-reaccessed probation entry is quick-demoted once the FIFO
  // fills — correct QD behavior, but this test is about wire ordering.
  constexpr ObjectId kKeys = 80;
  for (ObjectId key = 0; key < kKeys; ++key) {
    AppendSetRequest(&client.request_buffer(), key, 0,
                     "v" + std::to_string(key));
  }
  for (ObjectId key = 0; key < kKeys; ++key) {
    AppendGetRequest(&client.request_buffer(), key);
  }
  std::vector<OwnedFrame> responses;
  ASSERT_TRUE(client.Exchange(2 * kKeys, &responses));
  ASSERT_EQ(responses.size(), 2 * kKeys);
  for (ObjectId key = 0; key < kKeys; ++key) {
    EXPECT_EQ(responses[key].opcode, Op::kSet);
    EXPECT_EQ(responses[key].status, Status::kOk);
    EXPECT_EQ(responses[key].key, key);
    const OwnedFrame& get = responses[kKeys + key];
    EXPECT_EQ(get.opcode, Op::kGet);
    EXPECT_EQ(get.status, Status::kOk);
    EXPECT_EQ(get.key, key);
    EXPECT_EQ(get.body, "v" + std::to_string(key));
  }
}

// The acceptance differential: one worker, one connection, and an
// identically-configured in-process Cache replay the same zipf-skewed
// get/set/delete sequence. Every CacheStats counter must match exactly —
// the wire adds no accesses, drops none, and reorders nothing.
TEST_F(ServerE2eTest, LoopbackMatchesInProcessStats) {
  for (const char* policy : kValueDesigns) {
    const QdlpdOptions options = SmallServerOptions(policy);
    StartServer(options);
    std::unique_ptr<Cache> local = MakeCache(options.cache);
    ASSERT_NE(local, nullptr) << policy;

    QdlpdClient client;
    ASSERT_TRUE(client.Connect(server_->port())) << policy;

    Rng rng(0xD1FFull);
    ZipfSampler zipf(/*n=*/4096, /*skew=*/0.9);
    for (int i = 0; i < 5000; ++i) {
      const ObjectId key = zipf.Sample(rng);
      const int op = static_cast<int>(rng.NextBounded(10));
      if (op < 7) {
        // GET; on miss, SET (the classic demand-fill loop).
        std::string wire_value;
        const bool wire_hit = client.Get(key, &wire_value) == Status::kOk;
        std::string local_value;
        const bool local_hit = local->Get(key, &local_value);
        ASSERT_EQ(wire_hit, local_hit)
            << policy << " op " << i << " key " << key;
        ASSERT_EQ(wire_value, local_value) << policy;
        if (!wire_hit) {
          const std::string value = "fill" + std::to_string(key);
          ASSERT_EQ(client.Set(key, 0, value), Status::kOk) << policy;
          ASSERT_EQ(local->Set(key, value, 0), Cache::SetStatus::kOk)
              << policy;
        }
      } else if (op < 9) {
        const std::string value =
            "v" + std::to_string(key) + std::string(key % 200, 'z');
        ASSERT_EQ(client.Set(key, 0, value) == Status::kOk,
                  local->Set(key, value, 0) == Cache::SetStatus::kOk)
            << policy;
      } else {
        ASSERT_EQ(client.Delete(key) == Status::kOk, local->Delete(key))
            << policy << " op " << i << " key " << key;
      }
    }

    CacheStats wire_stats;
    ASSERT_TRUE(client.GetStats(&wire_stats)) << policy;
    const CacheStats local_stats = local->Stats();
    size_t count = 0;
    const StatsWireField* fields = StatsWireFields(&count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(wire_stats.*fields[i].member, local_stats.*fields[i].member)
          << policy << " " << fields[i].key;
    }
    server_->cache().CheckInvariants();
    local->CheckInvariants();
    server_->Stop();
  }
}

TEST_F(ServerE2eTest, MalformedFrameGetsBadRequestThenClose) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // A frame with a hostile body_len. The server answers kBadRequest and
  // closes; the client's next exchange fails.
  std::string& buffer = client.request_buffer();
  AppendGetRequest(&buffer, 1);
  buffer[0] = '\xFF';
  buffer[1] = '\xFF';
  buffer[2] = '\xFF';
  buffer[3] = '\x7F';
  std::vector<OwnedFrame> responses;
  ASSERT_TRUE(client.Exchange(1, &responses));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, Status::kBadRequest);
  EXPECT_FALSE(client.Ping());  // connection is gone

  // A fresh connection works — the server survived the bad client.
  QdlpdClient fresh;
  ASSERT_TRUE(fresh.Connect(server_->port()));
  EXPECT_TRUE(fresh.Ping());
}

TEST_F(ServerE2eTest, ShortSetBodyIsPerRequestErrorOnly) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Structurally valid SET frame whose body is too short for the ttl word:
  // semantically rejected, but the connection survives.
  AppendFrame(&client.request_buffer(), Op::kSet, Status::kOk, /*key=*/9,
              "ab", 2);
  std::vector<OwnedFrame> responses;
  ASSERT_TRUE(client.Exchange(1, &responses));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, Status::kBadRequest);
  EXPECT_TRUE(client.Ping());  // same connection still serves
}

TEST_F(ServerE2eTest, OversizedValueIsRejectedAsTooLarge) {
  QdlpdOptions options = SmallServerOptions();
  options.cache.max_value_len = 128;
  StartServer(options);
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  EXPECT_EQ(client.Set(1, 0, std::string(129, 'x')), Status::kTooLarge);
  EXPECT_EQ(client.Set(1, 0, std::string(128, 'x')), Status::kOk);
  std::string value;
  EXPECT_EQ(client.Get(1, &value), Status::kOk);
  EXPECT_EQ(value.size(), 128u);
}

TEST_F(ServerE2eTest, ReservedKeysAreBadRequestsNotCorruption) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_EQ(client.Set(1, 0, "live"), Status::kOk);

  // ~0 and ~0-1 are the striped index's empty/tombstone slot encodings;
  // the wire must never let them reach the cache (a DELETE of ~0 would
  // free a sentinel slot in a release build). Each is a per-request
  // kBadRequest — the connection survives.
  const ObjectId empty_key = ~ObjectId{0};
  const ObjectId tombstone_key = ~ObjectId{0} - 1;
  std::string value;
  for (const ObjectId key : {empty_key, tombstone_key}) {
    EXPECT_EQ(client.Get(key, &value), Status::kBadRequest);
    EXPECT_EQ(client.Set(key, 0, "x"), Status::kBadRequest);
    EXPECT_EQ(client.Delete(key), Status::kBadRequest);
  }

  // Same connection still serves, and the index was not disturbed.
  EXPECT_EQ(client.Get(1, &value), Status::kOk);
  EXPECT_EQ(value, "live");
  CacheStats stats;
  ASSERT_TRUE(client.GetStats(&stats));
  EXPECT_EQ(stats.size, 1u);
  server_->cache().CheckInvariants();
}

TEST_F(ServerE2eTest, HalfCloseDeliversAllPipelinedResponses) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  // One max-size value; 64 pipelined GETs of it build ~4 MiB of
  // responses, well past the server's 1 MiB output high-water mark — the
  // server must pause reading, flush as the client drains, observe the
  // half-close, and still deliver every response before closing.
  const std::string big(64 << 10, 'q');
  ASSERT_EQ(client.Set(5, 0, big), Status::kOk);
  constexpr size_t kGets = 64;
  for (size_t i = 0; i < kGets; ++i) {
    AppendGetRequest(&client.request_buffer(), 5);
  }
  ASSERT_TRUE(client.Flush());
  client.ShutdownWrites();
  std::vector<OwnedFrame> responses;
  ASSERT_TRUE(client.Exchange(kGets, &responses));
  ASSERT_EQ(responses.size(), kGets);
  for (const OwnedFrame& response : responses) {
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.body.size(), big.size());
  }
  // After the drain the server closes its side: EOF, not a hang.
  std::vector<OwnedFrame> none;
  EXPECT_FALSE(client.Exchange(1, &none));
  // The server itself is unaffected.
  QdlpdClient fresh;
  ASSERT_TRUE(fresh.Connect(server_->port()));
  EXPECT_TRUE(fresh.Ping());
}

TEST_F(ServerE2eTest, ManyConnectionsAcrossWorkers) {
  QdlpdOptions options = SmallServerOptions();
  options.num_workers = 2;
  StartServer(options);
  std::vector<std::unique_ptr<QdlpdClient>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<QdlpdClient>());
    ASSERT_TRUE(clients.back()->Connect(server_->port())) << i;
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(clients[i]->Set(static_cast<ObjectId>(i), 0,
                              "conn" + std::to_string(i)),
              Status::kOk);
  }
  for (int i = 0; i < 8; ++i) {
    std::string value;
    // Read a key written on a different connection (and possibly worker).
    const int other = (i + 3) % 8;
    ASSERT_EQ(clients[i]->Get(static_cast<ObjectId>(other), &value),
              Status::kOk);
    EXPECT_EQ(value, "conn" + std::to_string(other));
  }
  server_->cache().CheckInvariants();
}

// The server face and the replay face serve the same engine: after wire
// traffic, the in-process handle sees the wire's writes.
TEST_F(ServerE2eTest, InProcessHandleSharesTheEngine) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_EQ(client.Set(77, 0, "shared"), Status::kOk);
  std::string value;
  EXPECT_TRUE(server_->cache().Get(77, &value));
  EXPECT_EQ(value, "shared");
}

}  // namespace
}  // namespace qdlp
