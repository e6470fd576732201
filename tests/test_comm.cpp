// Tests for the in-process message-passing substrate: point-to-point
// semantics, collectives, serialization and termination detection.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "comm/cluster.hpp"
#include "comm/serialize.hpp"
#include "comm/termination.hpp"
#include "core/stream.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "sweep/stream_codec.hpp"

namespace jsweep::comm {
namespace {

Bytes bytes_of(std::int64_t v) {
  ByteWriter w;
  w.write(v);
  return w.take();
}

std::int64_t value_of(const Message& m) {
  ByteReader r(m.payload);
  return r.read<std::int64_t>();
}

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.write(std::int32_t{-7});
  w.write(3.25);
  w.write(std::uint8_t{200});
  const Bytes b = w.take();
  ByteReader r(b);
  EXPECT_EQ(r.read<std::int32_t>(), -7);
  EXPECT_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::uint8_t>(), 200);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, RoundTripVectorsAndStrings) {
  ByteWriter w;
  w.write_vector(std::vector<double>{1.0, 2.0, 3.0});
  w.write_string("jsweep");
  w.write_vector(std::vector<std::int16_t>{});
  const Bytes b = w.take();
  ByteReader r(b);
  EXPECT_EQ(r.read_vector<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(r.read_string(), "jsweep");
  EXPECT_TRUE(r.read_vector<std::int16_t>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, OverrunThrows) {
  ByteWriter w;
  w.write(std::int32_t{1});
  const Bytes b = w.take();
  ByteReader r(b);
  EXPECT_THROW(r.read<std::int64_t>(), CheckError);
}

TEST(Serialize, EmptyBufferAndEmptyString) {
  const Bytes empty;
  ByteReader r(empty);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.position(), 0u);
  EXPECT_THROW(r.read<std::uint8_t>(), CheckError);

  ByteWriter w;
  w.write_string("");
  const Bytes b = w.take();
  ByteReader r2(b);
  EXPECT_EQ(r2.read_string(), "");
  EXPECT_TRUE(r2.exhausted());
}

TEST(Serialize, LargePayloadRoundTrip) {
  // Multi-megabyte vector survives intact (catches size-type truncation).
  Rng rng(1234);
  std::vector<std::uint64_t> big(1 << 18);
  for (auto& v : big) v = rng();
  ByteWriter w;
  w.write_vector(big);
  const Bytes b = w.take();
  EXPECT_EQ(b.size(), sizeof(std::uint64_t) + big.size() * sizeof(big[0]));
  ByteReader r(b);
  EXPECT_EQ(r.read_vector<std::uint64_t>(), big);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TruncatedVectorHeaderThrows) {
  // A length prefix promising more bytes than the buffer holds must throw,
  // not read out of bounds.
  ByteWriter w;
  w.write(std::uint64_t{1000});  // claims 1000 doubles, provides none
  const Bytes b = w.take();
  ByteReader r(b);
  EXPECT_THROW(r.read_vector<double>(), CheckError);
}

// ---------------------------------------------------------------------------
// Stream batch (pack_streams/unpack_streams) round-trips. These are the
// wire format of every engine message; they were previously exercised only
// indirectly through engine runs.
// ---------------------------------------------------------------------------

core::Stream make_stream(std::int32_t src_patch, std::int32_t dst_patch,
                         std::int32_t task, std::size_t payload_bytes) {
  core::Stream s;
  s.src = {PatchId{src_patch}, TaskTag{task}};
  s.dst = {PatchId{dst_patch}, TaskTag{task}};
  s.data.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i)
    s.data[i] = static_cast<std::byte>((i * 31 + payload_bytes) & 0xff);
  return s;
}

TEST(StreamCodec, EmptyBatchRoundTrip) {
  const Bytes wire = core::pack_streams({});
  EXPECT_TRUE(core::unpack_streams(wire).empty());
}

TEST(StreamCodec, EmptyPayloadStreamRoundTrip) {
  // A stream may carry no payload at all (pure activation signal).
  const auto back = core::unpack_streams(
      core::pack_streams({make_stream(3, 9, 2, 0)}));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].src, (ProgramKey{PatchId{3}, TaskTag{2}}));
  EXPECT_EQ(back[0].dst, (ProgramKey{PatchId{9}, TaskTag{2}}));
  EXPECT_TRUE(back[0].data.empty());
}

TEST(StreamCodec, LargePayloadRoundTrip) {
  const auto original = make_stream(1, 2, 0, std::size_t{1} << 21);  // 2 MiB
  const auto back =
      core::unpack_streams(core::pack_streams({original}));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].data, original.data);
}

TEST(StreamCodec, MixedBatchRoundTrip) {
  // One wire message batching streams of wildly different sizes and keys —
  // exactly what flush_remote() produces.
  std::vector<core::Stream> batch;
  batch.push_back(make_stream(0, 1, 0, 0));
  batch.push_back(make_stream(5, 2, 7, 1));
  batch.push_back(make_stream(3, 4, 3, 4096));
  batch.push_back(make_stream(8, 8, 0, 13));
  const auto back = core::unpack_streams(core::pack_streams(batch));
  ASSERT_EQ(back.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(back[i].src, batch[i].src) << "stream " << i;
    EXPECT_EQ(back[i].dst, batch[i].dst) << "stream " << i;
    EXPECT_EQ(back[i].data, batch[i].data) << "stream " << i;
  }
}

TEST(StreamCodec, TruncatedWireThrows) {
  Bytes wire = core::pack_streams({make_stream(0, 1, 0, 64)});
  wire.resize(wire.size() / 2);
  EXPECT_THROW(core::unpack_streams(wire), CheckError);
}

// ---------------------------------------------------------------------------
// Malformed wire bytes: every reader of an untrusted payload must reject a
// frame whose length fields disagree with its size by throwing CheckError —
// never by reading past the buffer or failing an oversized allocation.
// ---------------------------------------------------------------------------

/// Overwrite the leading `Count` length field of `b` (resizing to fit).
template <class Count>
Bytes with_count(Bytes b, Count count) {
  if (b.size() < sizeof(count)) b.resize(sizeof(count));
  std::memcpy(b.data(), &count, sizeof(count));
  return b;
}

/// Append `n` random bytes to `b`.
void append_random(Rng& rng, Bytes& b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    b.push_back(static_cast<std::byte>(rng() & 0xff));
}

/// The first [0, limit) bytes of `b`, length drawn at random.
Bytes prefix(Rng& rng, const Bytes& b, std::size_t limit) {
  const auto n = static_cast<std::ptrdiff_t>(rng.below(limit));
  return Bytes(b.begin(), b.begin() + n);
}

/// `b` with 1 to rec - 1 random bytes appended: no longer a whole number of
/// `rec`-byte records.
Bytes misaligned(Rng& rng, Bytes b, std::size_t rec) {
  append_random(rng, b, 1 + rng.below(rec - 1));
  return b;
}

/// A count whose product with any record size that is a multiple of 8
/// wraps a 64-bit size_t back to `count` records: count + m·2^61, m ≥ 1.
std::uint64_t wrapped(Rng& rng, std::uint64_t count) {
  return count + ((1 + rng.below(7)) << 61);
}

/// A length that, added to read offset `pos`, wraps to j < 8.
std::uint64_t wrapping_length(Rng& rng, std::size_t pos) {
  return ~std::uint64_t{0} - pos + 1 + rng.below(8);
}

TEST(WireFraming, MalformedPayloadsThrowCheckError) {
  Rng rng(0x5eedf00d);
  for (int trial = 0; trial < 64; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::uint64_t k = rng.below(6);

    // Sweep stream payloads: 8-byte count + k (8 + 8W)-byte records, at
    // the single-group width W = 1 and at a random group-set width.
    for (const int width : {1, 2 + static_cast<int>(rng.below(7))}) {
      SCOPED_TRACE(testing::Message() << "width " << width);
      const std::vector<double> lanes(static_cast<std::size_t>(width), 0.5);
      Bytes wire;
      sweep::begin_records(wire, k, width);
      for (std::uint64_t i = 0; i < k; ++i)
        sweep::append_record(wire, static_cast<std::int64_t>(rng.below(1000)),
                             lanes.data(), width);
      sweep::end_records(wire, width);
      const std::size_t rec = sweep::record_size(width);
      ASSERT_EQ(rec, 8 + 8 * static_cast<std::size_t>(width));
      ASSERT_EQ(wire.size(), 8 + rec * k);
      ASSERT_EQ(sweep::record_count(wire, width), k);
      const std::vector<Bytes> bad{prefix(rng, wire, wire.size()),
                                   with_count(wire, k + 1 + rng.below(9)),
                                   with_count(wire, wrapped(rng, k)),
                                   misaligned(rng, wire, rec)};
      for (const Bytes& b : bad)
        EXPECT_THROW((void)sweep::record_count(b, width), CheckError);
    }

    // Length-prefixed vectors and strings: k doubles plus < 8 slack bytes.
    const std::size_t body = k * sizeof(double) + rng.below(8);
    Bytes prefixed;
    append_random(rng, prefixed, sizeof(std::uint64_t) + body);
    prefixed = with_count(std::move(prefixed), k);
    ASSERT_EQ(ByteReader(prefixed).read_vector<double>().size(), k);
    const std::size_t k_doubles = sizeof(std::uint64_t) + k * sizeof(double);
    const std::vector<Bytes> bad_vectors{
        prefix(rng, prefixed, k_doubles),
        with_count(prefixed, k + 1 + rng.below(9)),
        with_count(prefixed, wrapped(rng, k))};
    for (const Bytes& bad : bad_vectors)
      EXPECT_THROW((void)ByteReader(bad).read_vector<double>(), CheckError);
    const std::vector<Bytes> bad_strings{
        with_count(prefixed, body + 1 + rng.below(9)),
        with_count(prefixed, wrapping_length(rng, sizeof(std::uint64_t)))};
    for (const Bytes& bad : bad_strings)
      EXPECT_THROW((void)ByteReader(bad).read_string(), CheckError);

    // Stream batches: 4-byte count + k streams, each carrying a
    // length-prefixed byte payload.
    std::vector<core::Stream> batch;
    for (std::uint64_t i = 0; i < k; ++i)
      batch.push_back(
          make_stream(static_cast<std::int32_t>(i), 1, 0, rng.below(40)));
    const Bytes batch_wire = core::pack_streams(batch);
    ASSERT_EQ(core::unpack_streams(batch_wire).size(), k);
    // One stream more than the batch holds, followed by too few bytes for
    // even its header.
    Bytes short_tail =
        with_count(batch_wire, static_cast<std::uint32_t>(k + 1));
    append_random(rng, short_tail, 1 + rng.below(31));
    std::vector<Bytes> bad_batches{
        prefix(rng, batch_wire, batch_wire.size()),
        // Must be rejected before anything is reserved for it.
        with_count(batch_wire, static_cast<std::uint32_t>(~0U - rng.below(16))),
        short_tail};
    if (k > 0) {
      // The last stream's payload length wraps the read offset.
      const std::size_t len_at =
          batch_wire.size() - batch.back().data.size() - sizeof(std::uint64_t);
      const std::uint64_t len =
          wrapping_length(rng, len_at + sizeof(std::uint64_t));
      Bytes bad = batch_wire;
      std::memcpy(bad.data() + len_at, &len, sizeof(len));
      bad_batches.push_back(std::move(bad));
    }
    for (const Bytes& bad : bad_batches)
      EXPECT_THROW((void)core::unpack_streams(bad), CheckError);
  }
}

TEST(Cluster, PingPong) {
  Cluster::run(2, [](Context& ctx) {
    if (ctx.rank().value() == 0) {
      ctx.send(RankId{1}, kTagUser, bytes_of(42));
      const Message reply = ctx.recv();
      EXPECT_EQ(value_of(reply), 43);
      EXPECT_EQ(reply.src, RankId{1});
    } else {
      const Message m = ctx.recv();
      ctx.send(m.src, kTagUser, bytes_of(value_of(m) + 1));
    }
  });
}

TEST(Cluster, PerSenderFifoOrder) {
  constexpr int kMessages = 200;
  Cluster::run(2, [](Context& ctx) {
    if (ctx.rank().value() == 0) {
      for (std::int64_t i = 0; i < kMessages; ++i)
        ctx.send(RankId{1}, kTagUser, bytes_of(i));
    } else {
      for (std::int64_t i = 0; i < kMessages; ++i) {
        const Message m = ctx.recv();
        EXPECT_EQ(value_of(m), i);
      }
    }
  });
}

TEST(Cluster, AllToAllDelivery) {
  constexpr int kRanks = 6;
  Cluster::run(kRanks, [](Context& ctx) {
    for (int r = 0; r < ctx.size(); ++r) {
      if (r == ctx.rank().value()) continue;
      ctx.send(RankId{r}, kTagUser, bytes_of(ctx.rank().value()));
    }
    std::int64_t sum = 0;
    for (int i = 0; i < ctx.size() - 1; ++i) sum += value_of(ctx.recv());
    // Everyone else's rank id exactly once.
    EXPECT_EQ(sum, kRanks * (kRanks - 1) / 2 - ctx.rank().value());
  });
}

TEST(Cluster, TryRecvNonBlocking) {
  Cluster::run(2, [](Context& ctx) {
    if (ctx.rank().value() == 0) {
      EXPECT_FALSE(ctx.try_recv().has_value());
      ctx.barrier();          // let rank 1 send
      ctx.barrier();          // wait for the send to land
      const auto m = ctx.try_recv();
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(value_of(*m), 5);
    } else {
      ctx.barrier();
      ctx.send(RankId{0}, kTagUser, bytes_of(5));
      ctx.barrier();
    }
  });
}

TEST(Cluster, AllreduceSumAndMax) {
  Cluster::run(5, [](Context& ctx) {
    const auto me = static_cast<std::int64_t>(ctx.rank().value());
    EXPECT_EQ(ctx.allreduce_sum(me), 0 + 1 + 2 + 3 + 4);
    EXPECT_EQ(ctx.allreduce_max(me), 4);
    EXPECT_DOUBLE_EQ(ctx.allreduce_sum(0.5), 2.5);
    EXPECT_DOUBLE_EQ(ctx.allreduce_max(static_cast<double>(me)), 4.0);
    EXPECT_DOUBLE_EQ(ctx.allreduce_min(static_cast<double>(me)), 0.0);
    // Back-to-back reductions must not interfere.
    EXPECT_EQ(ctx.allreduce_sum(std::int64_t{1}), 5);
  });
}

TEST(Cluster, AllreduceVectorSum) {
  Cluster::run(4, [](Context& ctx) {
    std::vector<double> v(8);
    std::iota(v.begin(), v.end(), static_cast<double>(ctx.rank().value()));
    ctx.allreduce_sum(v);
    for (std::size_t i = 0; i < v.size(); ++i)
      EXPECT_DOUBLE_EQ(v[i], 4.0 * static_cast<double>(i) + 6.0);
  });
}

TEST(Cluster, TrafficCounters) {
  Cluster cluster(2);
  std::thread t0([&] {
    auto& ctx = cluster.context(RankId{0});
    ctx.send(RankId{1}, kTagUser, bytes_of(1));
    ctx.send(RankId{1}, kTagTerminate, {});  // control, not counted as basic
    ctx.barrier();
  });
  std::thread t1([&] {
    auto& ctx = cluster.context(RankId{1});
    (void)ctx.recv();
    (void)ctx.recv();
    ctx.barrier();
  });
  t0.join();
  t1.join();
  const auto total = cluster.total_traffic();
  EXPECT_EQ(total.basic_sent, 1);
  EXPECT_EQ(total.basic_received, 1);
  EXPECT_EQ(total.control_sent, 1);
  EXPECT_EQ(total.bytes_sent, static_cast<std::int64_t>(sizeof(std::int64_t)));
}

TEST(Cluster, RankExceptionPropagates) {
  EXPECT_THROW(Cluster::run(2,
                            [](Context& ctx) {
                              if (ctx.rank().value() == 1)
                                throw std::runtime_error("rank 1 died");
                            }),
               std::runtime_error);
}

TEST(Cluster, SingleRankWorks) {
  Cluster::run(1, [](Context& ctx) {
    EXPECT_EQ(ctx.size(), 1);
    ctx.send(RankId{0}, kTagUser, bytes_of(9));  // self-send
    EXPECT_EQ(value_of(ctx.recv()), 9);
    EXPECT_EQ(ctx.allreduce_sum(std::int64_t{3}), 3);
  });
}

// ---------------------------------------------------------------------------
// Safra termination detection
// ---------------------------------------------------------------------------

/// Drives a toy data-driven computation: each rank forwards a decrementing
/// hop counter to a random peer; when all counters die out, the system is
/// globally quiet and Safra must detect it (and must not detect it before).
void run_safra_workload(int ranks, int initial_tokens, int hops) {
  std::atomic<std::int64_t> total_hops{0};
  Cluster::run(ranks, [&](Context& ctx) {
    SafraDetector detector(ctx);
    Rng rng(1000 + static_cast<std::uint64_t>(ctx.rank().value()));

    // Seed: rank 0 launches `initial_tokens` wandering messages.
    if (ctx.rank().value() == 0) {
      for (int i = 0; i < initial_tokens; ++i) {
        const auto dest = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(ctx.size())));
        detector.note_basic_send();
        ctx.send(RankId{dest}, kTagUser, bytes_of(hops));
      }
    }

    while (!detector.terminated()) {
      if (auto msg = ctx.try_recv()) {
        switch (msg->tag) {
          case kTagUser: {
            detector.note_basic_recv();
            total_hops.fetch_add(1, std::memory_order_relaxed);
            const std::int64_t remaining = value_of(*msg) - 1;
            if (remaining > 0) {
              const auto dest = static_cast<int>(rng.below(
                  static_cast<std::uint64_t>(ctx.size())));
              detector.note_basic_send();
              ctx.send(RankId{dest}, kTagUser, bytes_of(remaining));
            }
            break;
          }
          case kTagToken:
            detector.on_token(*msg);
            break;
          case kTagTerminate:
            detector.on_terminate();
            break;
          default:
            FAIL() << "unexpected tag " << msg->tag;
        }
        continue;
      }
      detector.on_idle();
      if (!detector.terminated())
        ctx.wait_message(std::chrono::microseconds(50));
    }
  });
  EXPECT_EQ(total_hops.load(), static_cast<std::int64_t>(initial_tokens) * hops);
}

TEST(Safra, DetectsQuiescenceTwoRanks) { run_safra_workload(2, 4, 10); }

TEST(Safra, DetectsQuiescenceManyRanks) { run_safra_workload(7, 16, 25); }

TEST(Safra, ImmediateTerminationNoWork) { run_safra_workload(5, 0, 0); }

TEST(Safra, SingleRankTerminatesInstantly) {
  Cluster::run(1, [](Context& ctx) {
    SafraDetector detector(ctx);
    detector.on_idle();
    EXPECT_TRUE(detector.terminated());
  });
}

TEST(WorkloadTracker, CommitRetire) {
  WorkloadTracker t(10);
  EXPECT_FALSE(t.locally_done());
  t.retire(4);
  t.commit(2);
  EXPECT_EQ(t.remaining(), 8);
  t.retire(8);
  EXPECT_TRUE(t.locally_done());
}

}  // namespace
}  // namespace jsweep::comm
