// The wire protocol's compatibility contract. Golden byte vectors pin the
// exact encoding of every frame type — if any of these tests fail after an
// intentional layout change, kProtocolVersion must be bumped, not the
// goldens silently regenerated. Rejection tests pin the defensive-decode
// behavior (truncation, bad magic/version, oversized payloads, garbage),
// and a seeded round-trip fuzz pins bit-exact transport of float payloads,
// including non-finite bit patterns.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/frame.hpp"
#include "net/wire.hpp"
#include "stats/rng.hpp"

namespace hsd::net {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<unsigned> list) {
  std::vector<std::uint8_t> out;
  for (const unsigned v : list) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// ---------------------------------------------------------------------------
// Golden frames
// ---------------------------------------------------------------------------

TEST(WireGolden, PredictRequestEncodesToPinnedBytes) {
  wire::PredictRequest req;
  req.request_id = 0x0102030405060708ull;
  req.content_hash = 0x1122334455667788ull;
  req.grid = 2;
  req.flags = wire::kFlagHasDeadline | wire::kFlagShedAsFleet;
  req.deadline_budget_us = -1;
  req.bitmap = {0.0f, 1.0f, -2.5f, 0.25f};

  const std::vector<std::uint8_t> golden = bytes_of({
      // frame header: magic "HSDN", version 1, type 1, payload_len 45
      0x48, 0x53, 0x44, 0x4E, 0x01, 0x00, 0x01, 0x00,
      0x2D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // request_id, content_hash (little-endian u64)
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
      // grid u32, flags u8
      0x02, 0x00, 0x00, 0x00, 0x03,
      // deadline_budget_us i64 = -1
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
      // bitmap f32s: 0.0, 1.0, -2.5, 0.25 (IEEE-754 bits, little-endian)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3F,
      0x00, 0x00, 0x20, 0xC0, 0x00, 0x00, 0x80, 0x3E,
  });
  EXPECT_EQ(wire::encode(req), golden);
}

TEST(WireGolden, PredictResponseEncodesToPinnedBytes) {
  wire::PredictResponse resp;
  resp.request_id = 7;
  resp.status = wire::kStatusOk;
  resp.hotspot = 1;
  resp.cache_hit = 0;
  resp.shard = 3;
  resp.content_hash = 0x00000000DEADBEEFull;
  resp.batch_size = 16;
  resp.probability = 0.40625;  // 0x3FDA000000000000
  resp.server_seconds = 0.0;

  const std::vector<std::uint8_t> golden = bytes_of({
      // frame header: magic, version 1, type 2, payload_len 47
      0x48, 0x53, 0x44, 0x4E, 0x01, 0x00, 0x02, 0x00,
      0x2F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // request_id
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // status, hotspot, cache_hit
      0x00, 0x01, 0x00,
      // shard u32
      0x03, 0x00, 0x00, 0x00,
      // content_hash
      0xEF, 0xBE, 0xAD, 0xDE, 0x00, 0x00, 0x00, 0x00,
      // batch_size
      0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // probability 0.40625
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xDA, 0x3F,
      // server_seconds 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  });
  EXPECT_EQ(wire::encode(resp), golden);
}

TEST(WireGolden, ControlFramesEncodeToPinnedBytes) {
  EXPECT_EQ(wire::encode_shutdown_request(),
            bytes_of({0x48, 0x53, 0x44, 0x4E, 0x01, 0x00, 0x03, 0x00,
                      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
  EXPECT_EQ(wire::encode_shutdown_ack(),
            bytes_of({0x48, 0x53, 0x44, 0x4E, 0x01, 0x00, 0x04, 0x00,
                      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
  EXPECT_EQ(wire::encode_ping(0xAB),
            bytes_of({0x48, 0x53, 0x44, 0x4E, 0x01, 0x00, 0x05, 0x00,
                      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                      0xAB, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
  EXPECT_EQ(wire::encode_pong(0xAB),
            bytes_of({0x48, 0x53, 0x44, 0x4E, 0x01, 0x00, 0x06, 0x00,
                      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                      0xAB, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
}

// ---------------------------------------------------------------------------
// Defensive decoding
// ---------------------------------------------------------------------------

TEST(WireReject, TruncatedFrameHeader) {
  const auto frame = wire::encode_ping(1);
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_THROW(decode_frame_header(frame.data(), n), WireError) << n;
  }
  EXPECT_NO_THROW(decode_frame_header(frame.data(), kFrameHeaderBytes));
}

TEST(WireReject, BadMagic) {
  auto frame = wire::encode_ping(1);
  frame[0] ^= 0xFF;
  EXPECT_THROW(decode_frame_header(frame.data(), frame.size()), WireError);
}

TEST(WireReject, UnsupportedVersion) {
  auto frame = wire::encode_ping(1);
  frame[4] = kProtocolVersion + 1;
  EXPECT_THROW(decode_frame_header(frame.data(), frame.size()), WireError);
}

TEST(WireReject, OversizedPayloadLength) {
  Writer w;
  append_frame_header(w, FrameType::kPredictRequest, kMaxPayloadBytes + 1);
  const auto frame = w.take();
  EXPECT_THROW(decode_frame_header(frame.data(), frame.size()), WireError);
  // Exactly at the cap the header itself is fine.
  Writer ok;
  append_frame_header(ok, FrameType::kPredictRequest, kMaxPayloadBytes);
  const auto capped = ok.take();
  EXPECT_NO_THROW(decode_frame_header(capped.data(), capped.size()));
}

TEST(WireReject, TruncatedPredictRequestPayload) {
  wire::PredictRequest req;
  req.grid = 2;
  req.bitmap.assign(4, 0.5f);
  const auto frame = wire::encode(req);
  const std::uint8_t* payload = frame.data() + kFrameHeaderBytes;
  const std::size_t len = frame.size() - kFrameHeaderBytes;
  for (const std::size_t cut : {std::size_t{0}, std::size_t{8}, len - 1}) {
    EXPECT_THROW(wire::decode_predict_request(payload, cut), WireError) << cut;
  }
  EXPECT_NO_THROW(wire::decode_predict_request(payload, len));
}

TEST(WireReject, BitmapLengthMismatch) {
  // grid says 2x2 but the payload carries five floats.
  Writer w;
  w.u64(1);   // request_id
  w.u64(2);   // content_hash
  w.u32(2);   // grid
  w.u8(0);    // flags
  w.i64(0);   // deadline
  for (int i = 0; i < 5; ++i) w.f32(1.0f);
  const auto payload = w.take();
  EXPECT_THROW(wire::decode_predict_request(payload.data(), payload.size()),
               WireError);
}

TEST(WireReject, HostileGridIsRejectedBeforeAllocation) {
  Writer w;
  w.u64(1);
  w.u64(2);
  w.u32(0xFFFFFFFFu);  // grid*grid*4 would wrap; must still be rejected
  w.u8(0);
  w.i64(0);
  const auto payload = w.take();
  EXPECT_THROW(wire::decode_predict_request(payload.data(), payload.size()),
               WireError);
}

TEST(WireReject, TrailingResponseBytes) {
  auto frame = wire::encode(wire::PredictResponse{});
  std::vector<std::uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                    frame.end());
  payload.push_back(0);
  EXPECT_THROW(wire::decode_predict_response(payload.data(), payload.size()),
               WireError);
}

TEST(WireReject, GarbagePayload) {
  stats::Rng rng(99);
  std::vector<std::uint8_t> garbage(64);
  for (auto& b : garbage) {
    b = static_cast<std::uint8_t>(rng.randint(0, 255));
  }
  garbage[20] = 0xFF;  // guarantee an absurd grid whatever the draw was
  garbage[21] = 0xFF;
  garbage[22] = 0xFF;
  garbage[23] = 0xFF;
  EXPECT_THROW(wire::decode_predict_request(garbage.data(), garbage.size()),
               WireError);
}

// ---------------------------------------------------------------------------
// Round-trip fuzz
// ---------------------------------------------------------------------------

TEST(WireRoundTrip, SeededFuzzIsBitExact) {
  stats::Rng rng(4242);
  for (int iter = 0; iter < 200; ++iter) {
    wire::PredictRequest req;
    req.request_id = rng.engine()();
    req.content_hash = rng.engine()();
    const std::size_t grids[] = {0, 1, 2, 8, 16};
    req.grid = static_cast<std::uint32_t>(grids[iter % 5]);
    req.flags = static_cast<std::uint8_t>(rng.randint(0, 3));
    std::int64_t budget = 0;
    const std::uint64_t budget_bits = rng.engine()();
    std::memcpy(&budget, &budget_bits, sizeof(budget));
    req.deadline_budget_us = budget;
    req.bitmap.resize(std::size_t{req.grid} * req.grid);
    for (auto& v : req.bitmap) {
      // Arbitrary bit patterns, including NaNs/infinities: the transport
      // must reproduce bits, not values.
      const std::uint32_t bits = static_cast<std::uint32_t>(rng.engine()());
      std::memcpy(&v, &bits, sizeof(v));
    }

    const auto frame = wire::encode(req);
    const FrameHeader h = decode_frame_header(frame.data(), frame.size());
    ASSERT_EQ(h.type, FrameType::kPredictRequest);
    ASSERT_EQ(h.payload_len, frame.size() - kFrameHeaderBytes);
    const wire::PredictRequest back = wire::decode_predict_request(
        frame.data() + kFrameHeaderBytes, frame.size() - kFrameHeaderBytes);
    EXPECT_EQ(back.request_id, req.request_id);
    EXPECT_EQ(back.content_hash, req.content_hash);
    EXPECT_EQ(back.grid, req.grid);
    EXPECT_EQ(back.flags, req.flags);
    EXPECT_EQ(back.deadline_budget_us, req.deadline_budget_us);
    ASSERT_EQ(back.bitmap.size(), req.bitmap.size());
    // An empty bitmap (grid 0) may have no storage, and memcmp must not
    // see a null pointer even for zero bytes.
    EXPECT_TRUE(req.bitmap.empty() ||
                std::memcmp(back.bitmap.data(), req.bitmap.data(),
                            req.bitmap.size() * sizeof(float)) == 0);

    wire::PredictResponse resp;
    resp.request_id = rng.engine()();
    resp.status = static_cast<std::uint8_t>(rng.randint(0, 4));
    resp.hotspot = static_cast<std::uint8_t>(rng.randint(0, 1));
    resp.cache_hit = static_cast<std::uint8_t>(rng.randint(0, 1));
    resp.shard = static_cast<std::uint32_t>(rng.engine()());
    resp.content_hash = rng.engine()();
    resp.batch_size = rng.engine()();
    const std::uint64_t prob_bits = rng.engine()();
    std::memcpy(&resp.probability, &prob_bits, sizeof(resp.probability));
    const std::uint64_t sec_bits = rng.engine()();
    std::memcpy(&resp.server_seconds, &sec_bits, sizeof(resp.server_seconds));

    const auto rframe = wire::encode(resp);
    const wire::PredictResponse rback = wire::decode_predict_response(
        rframe.data() + kFrameHeaderBytes, rframe.size() - kFrameHeaderBytes);
    EXPECT_EQ(rback.request_id, resp.request_id);
    EXPECT_EQ(rback.status, resp.status);
    EXPECT_EQ(rback.hotspot, resp.hotspot);
    EXPECT_EQ(rback.cache_hit, resp.cache_hit);
    EXPECT_EQ(rback.shard, resp.shard);
    EXPECT_EQ(rback.content_hash, resp.content_hash);
    EXPECT_EQ(rback.batch_size, resp.batch_size);
    EXPECT_EQ(std::memcmp(&rback.probability, &resp.probability,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&rback.server_seconds, &resp.server_seconds,
                          sizeof(double)),
              0);
  }

  // Ping/pong tokens round-trip too.
  const auto ping = wire::encode_ping(rng.engine()());
  const FrameHeader h = decode_frame_header(ping.data(), ping.size());
  ASSERT_EQ(h.type, FrameType::kPing);
  EXPECT_NO_THROW(wire::decode_token(ping.data() + kFrameHeaderBytes,
                                     ping.size() - kFrameHeaderBytes));
}

}  // namespace
}  // namespace hsd::net
