#include "net/frame.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/wire.h"
#include "net/fault_injection.h"
#include "net/retry.h"
#include "net/transport.h"
#include "service/protocol.h"

namespace pprl {
namespace {

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) { return bytes; }

TEST(WireTest, IntegerRoundTrip) {
  WireWriter w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutString("linkage-unit");
  WireReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 0xab);
  EXPECT_EQ(r.ReadU16().value(), 0x1234);
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadString().value(), "linkage-unit");
  EXPECT_TRUE(r.exhausted());
}

TEST(WireTest, TruncatedReadsFail) {
  WireWriter w;
  w.PutU16(7);
  WireReader r(w.buffer());
  EXPECT_FALSE(r.ReadU32().ok());
  WireReader r2(w.buffer());
  EXPECT_TRUE(r2.ReadU16().ok());
  EXPECT_FALSE(r2.ReadU8().ok());
}

TEST(WireTest, HostileStringLengthIsBounded) {
  WireWriter w;
  w.PutU32(0xffffffffu);  // declares a 4 GiB string with no body
  WireReader r(w.buffer());
  auto s = r.ReadString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kOutOfRange);
}

TEST(FrameTest, RoundTripThroughBuffer) {
  BufferSink sink;
  FrameWriter writer(sink);
  ASSERT_TRUE(writer.WriteFrame(3, Payload({1, 2, 3, 4, 5})).ok());
  ASSERT_TRUE(writer.WriteFrame(5, {}).ok());  // zero-length payload is legal

  BufferSource source(sink.Take());
  FrameReader reader(source);
  auto first = reader.ReadFrame();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, 3);
  EXPECT_EQ(first->payload, Payload({1, 2, 3, 4, 5}));
  auto second = reader.ReadFrame();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, 5);
  EXPECT_TRUE(second->payload.empty());

  // Clean end-of-stream between frames is kNotFound, not corruption.
  auto eof = reader.ReadFrame();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
}

TEST(FrameTest, TruncatedHeaderIsError) {
  Frame frame;
  frame.type = 1;
  frame.payload = {9, 9, 9};
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  for (size_t cut = 1; cut < kFrameHeaderSize; ++cut) {
    BufferSource source(std::vector<uint8_t>(bytes.begin(),
                                             bytes.begin() + static_cast<long>(cut)));
    FrameReader reader(source);
    auto result = reader.ReadFrame();
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange) << "cut at " << cut;
  }
}

TEST(FrameTest, TruncatedPayloadIsError) {
  Frame frame;
  frame.type = 2;
  frame.payload.assign(100, 0x5a);
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  bytes.resize(bytes.size() - 40);  // lose part of the payload
  BufferSource source(std::move(bytes));
  FrameReader reader(source);
  auto result = reader.ReadFrame();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(FrameTest, BadMagicRejected) {
  Frame frame;
  frame.type = 1;
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  bytes[0] = 'X';
  BufferSource source(std::move(bytes));
  FrameReader reader(source);
  auto result = reader.ReadFrame();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolViolation);
}

TEST(FrameTest, WrongVersionRejected) {
  Frame frame;
  frame.type = 1;
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  bytes[4] = kWireProtocolVersion + 1;
  BufferSource source(std::move(bytes));
  FrameReader reader(source);
  EXPECT_EQ(reader.ReadFrame().status().code(), StatusCode::kProtocolViolation);
}

TEST(FrameTest, NonZeroReservedRejected) {
  Frame frame;
  frame.type = 1;
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  bytes[6] = 1;
  BufferSource source(std::move(bytes));
  FrameReader reader(source);
  EXPECT_EQ(reader.ReadFrame().status().code(), StatusCode::kProtocolViolation);
}

TEST(FrameTest, OversizedDeclaredLengthRejectedBeforeAllocation) {
  // A 12-byte header declaring a 4 GiB payload. The reader's cap is tiny,
  // so this must fail fast without trying to resize a buffer to 4 GiB.
  Frame frame;
  frame.type = 1;
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  bytes[8] = 0xff;
  bytes[9] = 0xff;
  bytes[10] = 0xff;
  bytes[11] = 0xff;
  BufferSource source(std::move(bytes));
  FrameReader reader(source, /*max_payload=*/1024);
  auto result = reader.ReadFrame();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(FrameTest, WriterEnforcesTheCapTheReaderWould) {
  BufferSink sink;
  FrameWriter writer(sink, /*max_payload=*/16);
  std::vector<uint8_t> too_big(17, 0);
  EXPECT_EQ(writer.WriteFrame(1, too_big).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(sink.bytes().empty());  // nothing partial went out
}

/// Fuzz-style sweep: random byte strings and randomly corrupted valid
/// frames must never crash the decoder or make it allocate beyond its cap
/// — every outcome is a frame or a Status error.
TEST(FrameFuzzTest, RandomInputNeverCrashes) {
  Rng rng(1234);
  constexpr size_t kMaxPayload = 4096;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes;
    if (rng.NextBool(0.5)) {
      // Start from a valid frame, then corrupt a few bytes.
      Frame frame;
      frame.type = static_cast<uint8_t>(rng.NextUint64(8));
      frame.payload.resize(rng.NextUint64(256));
      for (auto& b : frame.payload) b = static_cast<uint8_t>(rng.NextUint64(256));
      bytes = EncodeFrame(frame);
      const size_t flips = rng.NextUint64(4);
      for (size_t f = 0; f < flips; ++f) {
        bytes[rng.NextUint64(bytes.size())] ^=
            static_cast<uint8_t>(1u << rng.NextUint64(8));
      }
      // Sometimes also truncate.
      if (rng.NextBool(0.3)) bytes.resize(rng.NextUint64(bytes.size() + 1));
    } else {
      // Pure noise.
      bytes.resize(rng.NextUint64(64));
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextUint64(256));
    }
    BufferSource source(std::move(bytes));
    FrameReader reader(source, kMaxPayload);
    // Drain the stream; each step either yields a frame (within cap) or an
    // error, and the loop always terminates.
    for (int step = 0; step < 16; ++step) {
      auto result = reader.ReadFrame();
      if (!result.ok()) break;
      EXPECT_LE(result->payload.size(), kMaxPayload);
    }
  }
}

// ---------------------------------------------------------------------------
// Real-socket robustness: timeouts and dead peers must surface as decodable
// Status errors, never as hangs.

/// A connected loopback socket pair for transport tests.
struct SocketPair {
  TcpListener listener;
  std::unique_ptr<TcpConnection> client;
  std::unique_ptr<TcpConnection> server;

  explicit SocketPair(int client_io_timeout_ms) {
    EXPECT_TRUE(listener.Listen(0, /*loopback_only=*/true).ok());
    ConnectOptions options;
    options.io_timeout_ms = client_io_timeout_ms;
    auto dialled = TcpConnection::Connect("127.0.0.1", listener.port(), options);
    EXPECT_TRUE(dialled.ok());
    client = std::move(*dialled);
    auto accepted = listener.Accept(2000);
    EXPECT_TRUE(accepted.ok());
    server = std::move(*accepted);
  }
};

TEST(TcpTransportTest, ReadTimesOutWithDecodableError) {
  SocketPair pair(/*client_io_timeout_ms=*/200);
  uint8_t buf[16];
  const auto start = std::chrono::steady_clock::now();
  auto n = pair.client->Read(buf, sizeof(buf));  // nobody ever writes
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kIoError);
  EXPECT_NE(n.status().message().find("timed out"), std::string::npos)
      << n.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "SO_RCVTIMEO did not fire";
}

TEST(TcpTransportTest, WriteTimesOutWhenPeerStopsReading) {
  SocketPair pair(/*client_io_timeout_ms=*/200);
  // The peer never reads: once both socket buffers fill, the next write
  // must expire via SO_SNDTIMEO instead of blocking forever.
  std::vector<uint8_t> block(8u << 20, 0x7f);
  Status status = Status::OK();
  for (int i = 0; i < 64 && status.ok(); ++i) {
    status = pair.client->Write(block.data(), block.size());
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("timed out"), std::string::npos)
      << status.ToString();
}

TEST(TcpTransportTest, PeerClosingMidFrameYieldsDecodableError) {
  SocketPair pair(/*client_io_timeout_ms=*/2000);
  // The peer sends a frame header promising 100 payload bytes, delivers
  // 10, and dies. The reader must report truncation, not hang or crash.
  Frame frame;
  frame.type = 3;
  frame.payload.assign(100, 0xab);
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  bytes.resize(kFrameHeaderSize + 10);
  ASSERT_TRUE(pair.server->Write(bytes.data(), bytes.size()).ok());
  pair.server->Close();

  FrameReader reader(*pair.client);
  auto result = reader.ReadFrame();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(TcpTransportTest, AcceptDistinguishesTimeoutFromTeardown) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen(0, /*loopback_only=*/true).ok());
  // A quiet listener is a timeout (keep polling)...
  auto timeout = listener.Accept(50);
  ASSERT_FALSE(timeout.ok());
  EXPECT_EQ(timeout.status().code(), StatusCode::kNotFound);
  // ...but a concurrent Close() is a teardown (stop polling), even while
  // a thread is parked inside Accept.
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener.Close();
  });
  auto torn = listener.Accept(5000);
  closer.join();
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kFailedPrecondition)
      << torn.status().ToString();
  // And a closed listener refuses immediately with the same code.
  EXPECT_EQ(listener.Accept(10).status().code(), StatusCode::kFailedPrecondition);
}

TEST(FaultInjectionTest, WriteBytePointCutsExactlyThere) {
  SocketPair pair(/*client_io_timeout_ms=*/2000);
  FaultSpec spec;
  spec.seed = 1;
  spec.close_after_bytes_sent = 30;
  FaultInjectingConnection faulty(*pair.client, spec);

  std::vector<uint8_t> data(100, 0x5a);
  const Status status = faulty.Write(data.data(), data.size());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("injected"), std::string::npos);
  EXPECT_EQ(faulty.faults_injected(), 1u);

  // The peer sees exactly the 30-byte prefix, then a clean end-of-stream —
  // the cut lands mid-frame at a reproducible offset.
  std::vector<uint8_t> got;
  uint8_t buf[64];
  for (;;) {
    auto n = pair.server->Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    got.insert(got.end(), buf, buf + *n);
  }
  EXPECT_EQ(got.size(), 30u);
}

// ---------------------------------------------------------------------------
// Protocol-message fuzzing: mutated and truncated v2 handshake/resume/busy
// payloads must never crash a decoder, and the shipment assembler must stay
// idempotent under duplicated, re-ordered and corrupted chunks.

TEST(ProtocolFuzzTest, HandshakeAndResumeDecodersNeverCrash) {
  Rng rng(4242);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<uint8_t> bytes;
    switch (rng.NextUint64(7)) {
      case 0: {
        HelloMessage m;
        m.protocol_version = static_cast<uint32_t>(rng.NextUint64(4));
        m.party = "owner-" + std::to_string(rng.NextUint64(10));
        m.filter_bits = static_cast<uint32_t>(rng.NextUint64(1024));
        m.record_count = static_cast<uint32_t>(rng.NextUint64(100));
        bytes = EncodeHello(m);
        break;
      }
      case 1: {
        HelloAckMessage m;
        m.protocol_version = kWireProtocolVersion;
        m.server = "lu";
        m.expected_owners = 3;
        m.session_id = rng.NextUint64(1u << 20);
        m.max_chunk_bytes = static_cast<uint32_t>(rng.NextUint64(1u << 20));
        bytes = EncodeHelloAck(m);
        break;
      }
      case 2: {
        ResumeMessage m;
        m.protocol_version = kWireProtocolVersion;
        m.party = "owner";
        m.session_id = rng.NextUint64(1u << 20);
        bytes = EncodeResume(m);
        break;
      }
      case 3: {
        ResumeAckMessage m;
        m.session_id = rng.NextUint64(1u << 20);
        m.acked_bytes = rng.NextUint64(1u << 20);
        m.shipment_complete = rng.NextBool(0.5);
        bytes = EncodeResumeAck(m);
        break;
      }
      case 4: {
        BusyMessage m;
        m.retry_after_ms = static_cast<uint32_t>(rng.NextUint64(1000));
        m.reason = "sessions";
        bytes = EncodeBusy(m);
        break;
      }
      case 5: {
        ShipmentAckMessage m;
        m.session_id = rng.NextUint64(1u << 20);
        m.acked_bytes = rng.NextUint64(1u << 20);
        m.complete = rng.NextBool(0.5);
        m.owners_shipped = 1;
        m.expected_owners = 3;
        bytes = EncodeShipmentAck(m);
        break;
      }
      default: {
        ShipmentChunkMessage m;
        m.session_id = rng.NextUint64(1u << 20);
        m.offset = rng.NextUint64(1u << 20);
        m.last = rng.NextBool(0.5);
        m.data.resize(rng.NextUint64(64));
        for (auto& b : m.data) b = static_cast<uint8_t>(rng.NextUint64(256));
        bytes = EncodeShipmentChunk(m);
        break;
      }
    }
    // Mutate: bit flips, truncation, or random extension.
    const size_t flips = rng.NextUint64(4);
    for (size_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.NextUint64(bytes.size())] ^=
          static_cast<uint8_t>(1u << rng.NextUint64(8));
    }
    if (rng.NextBool(0.3)) bytes.resize(rng.NextUint64(bytes.size() + 1));
    if (rng.NextBool(0.2)) bytes.push_back(static_cast<uint8_t>(rng.NextUint64(256)));

    // Every decoder must return a message or a Status — never crash,
    // never allocate absurdly.
    (void)DecodeHello(bytes);
    (void)DecodeHelloAck(bytes);
    (void)DecodeResume(bytes);
    (void)DecodeResumeAck(bytes);
    (void)DecodeBusy(bytes);
    (void)DecodeShipmentAck(bytes);
    (void)DecodeError(bytes);
    (void)DecodeResults(bytes);
    auto chunk = DecodeShipmentChunk(bytes);
    if (chunk.ok()) {
      EXPECT_LE(chunk->data.size(), bytes.size());
    }
  }
}

AssignPartitionMessage SampleAssignment() {
  AssignPartitionMessage msg;
  msg.protocol_version = kWireProtocolVersion;
  msg.coordinator = "coordinator";
  msg.worker_index = 2;
  msg.num_workers = 3;
  msg.scheme = 1;
  msg.expected_owners = 4;
  msg.dice_threshold = 0.85;
  msg.lsh_tables = 20;
  msg.lsh_bits_per_key = 18;
  msg.lsh_seed = 0x0123456789abcdefULL;
  return msg;
}

TEST(ProtocolTest, AssignPartitionRoundTrip) {
  const AssignPartitionMessage msg = SampleAssignment();
  auto decoded = DecodeAssignPartition(EncodeAssignPartition(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->protocol_version, msg.protocol_version);
  EXPECT_EQ(decoded->coordinator, msg.coordinator);
  EXPECT_EQ(decoded->worker_index, msg.worker_index);
  EXPECT_EQ(decoded->num_workers, msg.num_workers);
  EXPECT_EQ(decoded->scheme, msg.scheme);
  EXPECT_EQ(decoded->expected_owners, msg.expected_owners);
  EXPECT_EQ(decoded->dice_threshold, msg.dice_threshold);
  EXPECT_EQ(decoded->lsh_tables, msg.lsh_tables);
  EXPECT_EQ(decoded->lsh_bits_per_key, msg.lsh_bits_per_key);
  EXPECT_EQ(decoded->lsh_seed, msg.lsh_seed);

  // The geometry bounds themselves are accepted.
  for (const auto& [tables, bits] : {std::pair<uint32_t, uint32_t>{1, 1}, {1024, 64}}) {
    AssignPartitionMessage edge = msg;
    edge.lsh_tables = tables;
    edge.lsh_bits_per_key = bits;
    EXPECT_TRUE(DecodeAssignPartition(EncodeAssignPartition(edge)).ok())
        << tables << " tables x " << bits << " bits";
  }
}

TEST(ProtocolTest, AssignPartitionRejectsOutOfRangeGeometry) {
  // 2^32-1 tables would size the band tables to ~100 GB: the decoder must
  // refuse it before any worker builds an index.
  for (const uint32_t tables : {0u, 1025u, UINT32_MAX}) {
    AssignPartitionMessage msg = SampleAssignment();
    msg.lsh_tables = tables;
    auto decoded = DecodeAssignPartition(EncodeAssignPartition(msg));
    ASSERT_FALSE(decoded.ok()) << tables << " tables";
    EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolViolation) << tables;
  }
  for (const uint32_t bits : {0u, 65u}) {
    AssignPartitionMessage msg = SampleAssignment();
    msg.lsh_bits_per_key = bits;
    auto decoded = DecodeAssignPartition(EncodeAssignPartition(msg));
    ASSERT_FALSE(decoded.ok()) << bits << " bits";
    EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolViolation) << bits;
  }
}

TEST(ProtocolFuzzTest, AssemblerIsIdempotentUnderDuplicatesGapsAndCorruption) {
  Rng rng(777);
  constexpr uint32_t kBits = 64;
  for (int iter = 0; iter < 100; ++iter) {
    const uint32_t records = 1 + static_cast<uint32_t>(rng.NextUint64(16));
    EncodedDatabase original;
    for (uint32_t i = 0; i < records; ++i) {
      original.ids.push_back(1000 + i);
      BitVector filter(kBits);
      for (size_t b = 0; b < kBits; ++b) {
        if (rng.NextBool(0.3)) filter.Set(b);
      }
      original.filters.push_back(std::move(filter));
    }
    auto shipment = EncodeShipment(original);
    ASSERT_TRUE(shipment.ok());
    const uint64_t total = shipment->size();

    ShipmentAssembler assembler(kBits, records);
    ASSERT_EQ(assembler.expected_bytes(), total);

    const auto make_chunk = [&](uint64_t offset, size_t len) {
      ShipmentChunkMessage chunk;
      chunk.session_id = 1;
      chunk.offset = offset;
      chunk.last = offset + len == total;
      chunk.data.assign(shipment->begin() + static_cast<ptrdiff_t>(offset),
                        shipment->begin() + static_cast<ptrdiff_t>(offset + len));
      chunk.checksum = ShipmentChunkChecksum(chunk.data.data(), chunk.data.size());
      return chunk;
    };

    int guard = 0;
    while (!assembler.complete()) {
      ASSERT_LT(++guard, 10000) << "assembler failed to converge";
      const uint64_t acked = assembler.acked_bytes();
      const uint64_t action = rng.NextUint64(5);
      if (action == 0 && acked > 0) {
        // Exact re-delivery of an already-applied span: must be a no-op.
        const uint64_t off = rng.NextUint64(acked);
        const size_t len = 1 + static_cast<size_t>(rng.NextUint64(acked - off));
        auto applied = assembler.Apply(make_chunk(off, len));
        ASSERT_TRUE(applied.ok()) << applied.status().ToString();
        EXPECT_FALSE(*applied) << "duplicate was applied";
        EXPECT_EQ(assembler.acked_bytes(), acked) << "duplicate moved the cursor";
      } else if (action == 1 && acked + 2 <= total) {
        // A gap must be rejected and leave the cursor alone.
        auto gap = make_chunk(acked + 1, static_cast<size_t>(total - acked - 1));
        auto applied = assembler.Apply(gap);
        ASSERT_FALSE(applied.ok());
        EXPECT_EQ(applied.status().code(), StatusCode::kProtocolViolation);
        EXPECT_EQ(assembler.acked_bytes(), acked);
      } else if (action == 2 && acked < total) {
        // A corrupted chunk must be rejected by its checksum.
        auto bad = make_chunk(acked, 1 + static_cast<size_t>(rng.NextUint64(
                                          std::min<uint64_t>(total - acked, 32))));
        bad.data[rng.NextUint64(bad.data.size())] ^= 0x10;  // checksum now stale
        auto applied = assembler.Apply(bad);
        ASSERT_FALSE(applied.ok());
        EXPECT_EQ(applied.status().code(), StatusCode::kIoError);
        EXPECT_EQ(assembler.acked_bytes(), acked);
      } else {
        // The correct next chunk advances the cursor by exactly its size.
        const size_t len = 1 + static_cast<size_t>(rng.NextUint64(
                                   std::min<uint64_t>(total - acked, 32)));
        auto applied = assembler.Apply(make_chunk(acked, len));
        ASSERT_TRUE(applied.ok()) << applied.status().ToString();
        EXPECT_TRUE(*applied);
        EXPECT_EQ(assembler.acked_bytes(), acked + len);
      }
    }
    // In-order completion reproduces the original shipment bit-for-bit.
    auto finished = assembler.Finish();
    ASSERT_TRUE(finished.ok()) << finished.status().ToString();
    auto reencoded = EncodeShipment(*finished);
    ASSERT_TRUE(reencoded.ok());
    EXPECT_EQ(*reencoded, *shipment);

    // Discard() frees the buffer but keeps the resume cursor answerable.
    assembler.Discard();
    EXPECT_EQ(assembler.buffered_bytes(), 0u);
    EXPECT_TRUE(assembler.complete());
    EXPECT_EQ(assembler.acked_bytes(), total);
  }
}

/// RunWithRetry against a scripted attempt function: attempt i
/// returns script[i] (and the BUSY hint hints[i] when >= 0).
struct ScriptedExchange {
  std::vector<Status> script;
  std::vector<int> hints;
  int attempts = 0;
  std::vector<bool> busy_retries;
  std::vector<int> delays;

  Status Run(const RetryPolicy& policy) {
    return RunWithRetry(
        policy, "scripted exchange",
        [this](int attempt, int* busy_hint_ms) {
          EXPECT_EQ(attempt, attempts);
          EXPECT_EQ(*busy_hint_ms, -1);
          ++attempts;
          const size_t i = static_cast<size_t>(attempt);
          if (i < hints.size()) *busy_hint_ms = hints[i];
          return i < script.size() ? script[i] : Status::IoError("script ran out");
        },
        [this](bool busy, int delay_ms) {
          busy_retries.push_back(busy);
          delays.push_back(delay_ms);
        });
  }
};

RetryPolicy FastPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_initial_ms = 1;
  policy.backoff_max_ms = 4;
  policy.jitter = 0;
  return policy;
}

TEST(RunWithRetryTest, StopsAtTheFirstSuccess) {
  ScriptedExchange exchange;
  exchange.script = {Status::IoError("reset"), Status::ProtocolViolation("garbled"),
                     Status::IoError("timed out"), Status::OutOfRange("torn"),
                     Status::OK(), Status::IoError("never reached")};
  EXPECT_TRUE(exchange.Run(FastPolicy()).ok());
  EXPECT_EQ(exchange.attempts, 5);
  // Exponential, capped at backoff_max_ms; no BUSY involved.
  EXPECT_EQ(exchange.delays, (std::vector<int>{1, 2, 4, 4}));
  EXPECT_EQ(exchange.busy_retries, (std::vector<bool>(4, false)));
}

TEST(RunWithRetryTest, TerminalCodesEndAfterOneAttempt) {
  for (const Status& terminal :
       {Status::InvalidArgument("bad"), Status::AlreadyExists("dup"),
        Status::FailedPrecondition("late"), Status::Internal("bug")}) {
    ScriptedExchange exchange;
    exchange.script = {terminal, Status::OK()};
    const Status result = exchange.Run(FastPolicy());
    EXPECT_EQ(result.code(), terminal.code());
    EXPECT_EQ(result.message(), terminal.message());
    EXPECT_EQ(exchange.attempts, 1);
    EXPECT_TRUE(exchange.delays.empty());
  }
  // kNotFound is the caller's cue to start over, so it is retried.
  ScriptedExchange swept;
  swept.script = {Status::NotFound("unknown session"), Status::OK()};
  EXPECT_TRUE(swept.Run(FastPolicy()).ok());
  EXPECT_EQ(swept.attempts, 2);
}

TEST(RunWithRetryTest, BusyHintReplacesTheExponentialDelay) {
  RetryPolicy policy = FastPolicy();
  policy.backoff_initial_ms = 1000;  // a backoff sleep would stall the test
  policy.backoff_max_ms = 1000;
  ScriptedExchange exchange;
  exchange.script = {Status::IoError("server busy: sessions"),
                     Status::IoError("server busy: buffer"), Status::OK()};
  exchange.hints = {7, 0};
  EXPECT_TRUE(exchange.Run(policy).ok());
  // A zero hint still waits the 1 ms floor.
  EXPECT_EQ(exchange.delays, (std::vector<int>{7, 1}));
  EXPECT_EQ(exchange.busy_retries, (std::vector<bool>{true, true}));
}

TEST(RunWithRetryTest, AttemptsAndDeadlineBoundTheLoopAndKeepTheLastError) {
  ScriptedExchange exhausted;
  exhausted.script = std::vector<Status>(5, Status::IoError("server busy: sessions"));
  const Status out_of_attempts = exhausted.Run(FastPolicy());
  EXPECT_EQ(out_of_attempts.code(), StatusCode::kIoError);
  EXPECT_EQ(exhausted.attempts, 5);
  EXPECT_EQ(exhausted.delays.size(), 4u) << "no sleep after the last attempt";
  EXPECT_NE(out_of_attempts.message().find("scripted exchange failed after 5 attempts"),
            std::string::npos)
      << out_of_attempts.ToString();
  EXPECT_NE(out_of_attempts.message().find("busy"), std::string::npos)
      << out_of_attempts.ToString();

  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 100;
  policy.backoff_initial_ms = 40;
  policy.backoff_max_ms = 40;
  policy.deadline_ms = 60;
  ScriptedExchange late;
  late.script = std::vector<Status>(100, Status::IoError("connection reset"));
  const auto start = std::chrono::steady_clock::now();
  const Status past_deadline = late.Run(policy);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(past_deadline.code(), StatusCode::kIoError);
  EXPECT_LT(late.attempts, 100);
  EXPECT_NE(past_deadline.message().find("deadline exceeded"), std::string::npos)
      << past_deadline.ToString();
  EXPECT_NE(past_deadline.message().find("connection reset"), std::string::npos)
      << past_deadline.ToString();
}

}  // namespace
}  // namespace pprl
