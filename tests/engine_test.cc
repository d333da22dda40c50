#include "engine/sharded_run.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/snapshot.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "report/json.h"

namespace sustainai::engine {
namespace {

// --- snapshot primitives --------------------------------------------------

TEST(EngineSnapshot, Fnv1aIsStableAndSensitive) {
  // Empty input hashes to the offset basis; any byte change flips the hash.
  EXPECT_EQ(fnv1a(""), 1469598103934665603ULL);
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a("abc"), fnv1a("ab"));
  // Order matters (not a bag-of-bytes hash).
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
}

TEST(EngineSnapshot, Hex64FormatsSixteenLowercaseDigits) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0xffffffffffffffffULL), "ffffffffffffffff");
  EXPECT_EQ(hex64(0x0123456789abcdefULL), "0123456789abcdef");
}

TEST(EngineSnapshot, ConfigDigestIsValueFaithful) {
  const auto hex = [](auto&& fill) {
    ConfigDigest d;
    fill(d);
    return d.hex();
  };
  const std::string base = hex([](ConfigDigest& d) {
    d.add_string("fleet").add_long(96).add_double(0.1);
  });
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, hex([](ConfigDigest& d) {
              d.add_string("fleet").add_long(96).add_double(0.1);
            }));
  // The tiniest value change — one ULP — flips the digest: shortest_double
  // is a lossless image of the double.
  EXPECT_NE(base, hex([](ConfigDigest& d) {
              d.add_string("fleet").add_long(96).add_double(
                  std::nextafter(0.1, 1.0));
            }));
  EXPECT_NE(base, hex([](ConfigDigest& d) {
              d.add_string("fleet").add_long(97).add_double(0.1);
            }));
  // Field order is part of the digest.
  EXPECT_NE(base, hex([](ConfigDigest& d) {
              d.add_long(96).add_string("fleet").add_double(0.1);
            }));
}

TEST(EngineSnapshot, RequireHelpersNameFieldAndContext) {
  report::JsonValue obj = report::JsonValue::object();
  obj.set("n", report::JsonValue::number(3.0));
  obj.set("half", report::JsonValue::number(0.5));
  obj.set("s", report::JsonValue::string("x"));

  EXPECT_EQ(require_number(obj, "n", "test checkpoint"), 3.0);
  EXPECT_EQ(require_integer(obj, "n", "test checkpoint"), 3);

  const auto expect_message = [&](const char* key, const char* needle,
                                  auto&& call) {
    try {
      call();
      FAIL() << "expected std::invalid_argument for key " << key;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("test checkpoint"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  expect_message("missing", "missing", [&] {
    (void)require_member(obj, "missing", "test checkpoint");
  });
  expect_message("s", "number", [&] {
    (void)require_number(obj, "s", "test checkpoint");
  });
  expect_message("half", "integer", [&] {
    (void)require_integer(obj, "half", "test checkpoint");
  });
}

TEST(EngineSnapshot, EnvelopeRoundTripsAndRejects) {
  const std::string digest = "0123456789abcdef";
  report::JsonValue root = report::JsonValue::object();
  write_envelope(root, "test-schema-v1", digest);
  EXPECT_NO_THROW(check_envelope(root, "test-schema-v1", digest, "test"));

  // Structural / schema problems are plain invalid_argument...
  EXPECT_THROW(check_envelope(report::JsonValue::array(), "test-schema-v1",
                              digest, "test"),
               std::invalid_argument);
  EXPECT_THROW(check_envelope(root, "other-schema-v1", digest, "test"),
               std::invalid_argument);
  report::JsonValue no_digest = report::JsonValue::object();
  no_digest.set("schema", report::JsonValue::string("test-schema-v1"));
  EXPECT_THROW(check_envelope(no_digest, "test-schema-v1", digest, "test"),
               std::invalid_argument);

  // ...while a digest-only disagreement is the dedicated subclass, so the
  // CLI can tell "foreign run" apart from "corrupt file".
  try {
    check_envelope(root, "test-schema-v1", "ffffffffffffffff", "test");
    FAIL() << "expected SnapshotDigestMismatch";
  } catch (const SnapshotDigestMismatch& e) {
    EXPECT_NE(std::string(e.what()).find("digest mismatch"),
              std::string::npos);
  }
}

// --- ShardedRun driver ----------------------------------------------------

// Minimal Partial satisfying the driver contract: default = merge identity,
// elementwise left-to-right merge, lossless double buffer.
struct ToyPartial {
  std::vector<double> lanes = std::vector<double>(3, 0.0);

  void merge(const ToyPartial& other) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i] += other.lanes[i];
    }
  }
  [[nodiscard]] const std::vector<double>& buffer() const { return lanes; }
  void set_buffer(std::span<const double> b) {
    if (b.size() != lanes.size()) {
      throw std::invalid_argument("toy checkpoint: buffer size mismatch");
    }
    std::copy(b.begin(), b.end(), lanes.begin());
  }
};

using ToyRun = ShardedRun<ToyPartial>;
using ToyState = ShardState<ToyPartial>;

// Per-step values with no algebraic shortcuts, so the float fold order is
// observable: byte-identity across segmentations is a real statement.
ToyPartial toy_cell(std::size_t shard, long begin, long end) {
  ToyPartial p;
  for (long s = begin; s < end; ++s) {
    const double v =
        1.0 / (1.0 + static_cast<double>(s) + 17.0 * static_cast<double>(shard));
    p.lanes[0] += v;
    p.lanes[1] += v * v;
    p.lanes[2] += 1.0;
  }
  return p;
}

ToyRun::Config toy_config(std::size_t shards, exec::ThreadPool* pool = nullptr) {
  ToyRun::Config c;
  c.steps = 331;  // prime: the last chunk is ragged
  c.steps_per_chunk = 16;
  c.shards = shards;
  c.pool = pool;
  c.context = "toy checkpoint";
  return c;
}

std::string state_text(const ToyRun& run, const ToyState& state) {
  return report::canonical_json(
      run.state_json(state.next_step, state.shards, "toy-v1", "toydigest",
                     "shards"));
}

// The fold the driver must reproduce: every shard's chunks, one at a time,
// in ascending order on one thread.
std::string serial_fold_text(const ToyRun& run) {
  ToyState state = run.start();
  for (std::size_t r = 0; r < state.shards.size(); ++r) {
    for (long b = 0; b < run.steps(); b += run.steps_per_chunk()) {
      state.shards[r].merge(
          toy_cell(r, b, std::min(run.steps(), b + run.steps_per_chunk())));
    }
  }
  state.next_step = run.steps();
  return state_text(run, state);
}

TEST(ShardedRun, ValidatesConfigAndAlignsChunks) {
  EXPECT_EQ(ToyRun(toy_config(3)).chunk_count(), (331 + 15) / 16);

  ToyRun::Config zero_steps = toy_config(1);
  zero_steps.steps = 0;
  EXPECT_THROW((void)ToyRun{zero_steps}, std::invalid_argument);

  ToyRun::Config zero_chunk = toy_config(1);
  zero_chunk.steps_per_chunk = 0;
  EXPECT_THROW((void)ToyRun{zero_chunk}, std::invalid_argument);

  ToyRun::Config no_shards = toy_config(1);
  no_shards.shards = 0;
  EXPECT_THROW((void)ToyRun{no_shards}, std::invalid_argument);
}

TEST(ShardedRun, SegmentEndRoundsUpToChunkBoundary) {
  const ToyRun run(toy_config(2));
  EXPECT_EQ(run.segment_end(0, 1), 16);    // rounds a tiny segment up
  EXPECT_EQ(run.segment_end(0, 16), 16);   // exact boundary stays
  EXPECT_EQ(run.segment_end(0, 17), 32);   // one step over -> next chunk
  EXPECT_EQ(run.segment_end(320, 1000), 331);  // clipped to the horizon
  EXPECT_EQ(run.segment_end(331, 5), 331);     // done: no-op
  EXPECT_THROW((void)run.segment_end(8, 16), std::invalid_argument);
  EXPECT_THROW((void)run.segment_end(-1, 16), std::invalid_argument);
  EXPECT_THROW((void)run.segment_end(0, 0), std::invalid_argument);
}

TEST(ShardedRun, SegmentationInvariantAtAnyShardCount) {
  for (const std::size_t shards : {1u, 3u, 7u}) {
    const ToyRun run(toy_config(shards));

    ToyState whole = run.start();
    run.advance(whole, run.steps(), toy_cell);
    ASSERT_TRUE(run.done(whole.next_step));
    const std::string fp_whole = state_text(run, whole);
    EXPECT_EQ(fp_whole, serial_fold_text(run)) << "shards=" << shards;

    for (const long stride : {1L, 16L, 50L, 333L}) {
      ToyState seg = run.start();
      while (!run.done(seg.next_step)) {
        run.advance(seg, stride, toy_cell);
      }
      EXPECT_EQ(state_text(run, seg), fp_whole)
          << "shards=" << shards << " stride=" << stride;
    }
  }
}

TEST(ShardedRun, ByteIdenticalAcrossThreadCounts) {
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool8(8);
  for (const std::size_t shards : {1u, 3u, 7u}) {
    // Long enough that every shard count runs its waves on the pool.
    ToyRun::Config serial_config = toy_config(shards, &pool1);
    serial_config.steps = 3 * ToyRun::kInlineSegmentSteps + 5;
    ToyRun::Config wide_config = serial_config;
    wide_config.pool = &pool8;
    const ToyRun serial(serial_config);
    const ToyRun wide(wide_config);
    ToyState a = serial.start();
    serial.advance(a, serial.steps(), toy_cell);
    ToyState b = wide.start();
    wide.advance(b, wide.steps(), toy_cell);
    EXPECT_EQ(state_text(serial, a), state_text(wide, b)) << "shards=" << shards;
    EXPECT_EQ(state_text(serial, a), serial_fold_text(serial))
        << "shards=" << shards;
  }
}

TEST(ShardedRun, WavesBoundTheTasksOfALongSegment) {
  // 3 shards x 3,000 chunks: waves of kMaxWaveTasks / 3 = 1,365 whole chunk
  // columns, so three exec regions of at most kMaxWaveTasks tasks, folded
  // into the same bytes as one serial pass.
  constexpr std::size_t kShards = 3;
  constexpr long kChunks = 3000;
  exec::ThreadPool pool(4);
  ToyRun::Config c = toy_config(kShards, &pool);
  c.steps_per_chunk = 4;
  c.steps = kChunks * c.steps_per_chunk - 1;  // a ragged last chunk
  const ToyRun run(c);
  const long columns = static_cast<long>(ToyRun::kMaxWaveTasks / kShards);
  const long waves = (kChunks + columns - 1) / columns;
  ASSERT_GT(waves, 2);

  std::vector<std::vector<long>> seen(kShards);
  ToyState state = run.start();
  const exec::CounterSnapshot before = exec::counters();
  run.advance(state, run.steps(), toy_cell,
              [&](std::size_t shard, long chunk, const ToyPartial&) {
                seen[shard].push_back(chunk);
              });
  const exec::CounterSnapshot after = exec::counters();
  EXPECT_EQ(after.parallel_regions - before.parallel_regions,
            static_cast<std::uint64_t>(waves));
  EXPECT_EQ(after.chunks_executed - before.chunks_executed,
            static_cast<std::uint64_t>(kShards * kChunks));
  EXPECT_EQ(state_text(run, state), serial_fold_text(run));
  for (std::size_t r = 0; r < kShards; ++r) {
    ASSERT_EQ(seen[r].size(), static_cast<std::size_t>(kChunks)) << r;
    for (long k = 0; k < kChunks; ++k) {
      EXPECT_EQ(seen[r][static_cast<std::size_t>(k)], k) << r;
    }
  }
}

TEST(ShardedRun, InlineSegmentRuleKeepsPartialsAndTraces) {
  // A wave of fewer shard-steps than kInlineSegmentSteps runs on the
  // caller, a larger one on the pool. Just below and just above that size,
  // at every shard count, every thread count yields the 1-thread fold and
  // trace.
  constexpr long kChunk = 256;
  const auto cell = [](std::size_t shard, long begin, long end) {
    obs::Span span("toy.cell", static_cast<double>(begin),
                   static_cast<double>(end));
    return toy_cell(shard, begin, end);
  };
  const auto traced_run = [&](exec::ThreadPool* pool, std::size_t shards,
                              long segment) {
    ToyRun::Config c = toy_config(shards, pool);
    c.steps = 3 * ToyRun::kInlineSegmentSteps;
    c.steps_per_chunk = kChunk;
    c.step_seconds = 1.0;
    c.segment_span = "toy.segment";
    const ToyRun run(c);
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.set_enabled(true);
    ToyState state = run.start();
    while (!run.done(state.next_step)) {
      run.advance(state, segment, cell);
    }
    tracer.set_enabled(false);
    const std::string out =
        state_text(run, state) + "\n" + obs::chrome_trace_json(tracer.collect());
    tracer.clear();
    return out;
  };
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool2(2);
  exec::ThreadPool pool8(8);
  for (const std::size_t shards : {1u, 3u, 7u}) {
    // The largest whole-chunk segment below the rule, and the next one.
    const long inline_steps =
        ToyRun::kInlineSegmentSteps / static_cast<long>(shards);
    const long below = (inline_steps - 1) / kChunk * kChunk;
    for (const long segment : {below, below + kChunk}) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " segment=" << segment);
      const std::string serial = traced_run(&pool1, shards, segment);
      EXPECT_NE(serial.find("toy.cell"), std::string::npos);
      EXPECT_EQ(traced_run(&pool2, shards, segment), serial);
      EXPECT_EQ(traced_run(&pool8, shards, segment), serial);
    }
  }
}

TEST(ShardedRun, ObserveSeesEveryChunkAscendingPreMerge) {
  const std::thread::id caller = std::this_thread::get_id();
  exec::ThreadPool pool(4);
  for (const std::size_t shards : {1u, 3u, 7u}) {
    ToyRun::Config c = toy_config(shards, &pool);
    c.steps = 2 * ToyRun::kInlineSegmentSteps + 3;  // runs on the pool
    const ToyRun run(c);
    std::vector<std::vector<long>> chunks(shards);
    std::vector<std::vector<double>> counts(shards);
    ToyState state = run.start();
    run.advance(state, run.steps(), toy_cell,
                [&](std::size_t shard, long chunk, const ToyPartial& p) {
                  // Serial: on the caller, never on a pool worker.
                  EXPECT_EQ(std::this_thread::get_id(), caller);
                  chunks[shard].push_back(chunk);
                  counts[shard].push_back(p.lanes[2]);
                });
    for (std::size_t r = 0; r < shards; ++r) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards << " shard=" << r);
      ASSERT_EQ(chunks[r].size(), static_cast<std::size_t>(run.chunk_count()));
      double total = 0.0;
      for (std::size_t i = 0; i < chunks[r].size(); ++i) {
        EXPECT_EQ(chunks[r][i], static_cast<long>(i));
        // Pre-merge: each partial carries only its own window's steps.
        EXPECT_LE(counts[r][i], static_cast<double>(run.steps_per_chunk()));
        total += counts[r][i];
      }
      EXPECT_EQ(total, static_cast<double>(run.steps()));
    }
  }
}

TEST(ShardedRun, StateRoundTripsThroughCanonicalJson) {
  const ToyRun run(toy_config(3));
  ToyState state = run.start();
  run.advance(state, 40, toy_cell);  // lands on a chunk boundary (48)
  ASSERT_EQ(state.next_step % run.steps_per_chunk(), 0);

  const report::JsonValue snapshot =
      run.state_json(state.next_step, state.shards, "toy-v1", "toydigest",
                     "shards");
  const ToyState parsed = run.parse_state(
      report::parse_json(report::canonical_json(snapshot)), "toy-v1",
      "toydigest", "shards", [](std::size_t) { return ToyPartial{}; });
  EXPECT_EQ(parsed.next_step, state.next_step);
  ASSERT_EQ(parsed.shards.size(), state.shards.size());
  for (std::size_t r = 0; r < state.shards.size(); ++r) {
    EXPECT_EQ(parsed.shards[r].lanes, state.shards[r].lanes);
  }
}

TEST(ShardedRun, ParseStateRejectsBadSnapshots) {
  const ToyRun run(toy_config(3));
  ToyState state = run.start();
  run.advance(state, 16, toy_cell);
  const auto make = [](std::size_t) { return ToyPartial{}; };
  const report::JsonValue good =
      run.state_json(state.next_step, state.shards, "toy-v1", "toydigest",
                     "shards");

  // Foreign digest is the dedicated subclass.
  EXPECT_THROW((void)run.parse_state(good, "toy-v1", "otherdigest", "shards",
                                     make),
               SnapshotDigestMismatch);

  // Off-boundary next_step.
  report::JsonValue off = report::parse_json(report::canonical_json(good));
  off.set("next_step", report::JsonValue::number(7.0));
  EXPECT_THROW(
      (void)run.parse_state(off, "toy-v1", "toydigest", "shards", make),
      std::invalid_argument);

  // Wrong shard count.
  report::JsonValue fewer = report::parse_json(report::canonical_json(good));
  report::JsonValue two = report::JsonValue::array();
  two.append(report::JsonValue::array());
  two.append(report::JsonValue::array());
  fewer.set("shards", std::move(two));
  EXPECT_THROW(
      (void)run.parse_state(fewer, "toy-v1", "toydigest", "shards", make),
      std::invalid_argument);

  // Wrong buffer width is caught by the Partial's set_buffer.
  report::JsonValue narrow = report::parse_json(report::canonical_json(good));
  report::JsonValue narrow_shards = report::JsonValue::array();
  for (int r = 0; r < 3; ++r) {
    report::JsonValue buffer = report::JsonValue::array();
    buffer.append(report::JsonValue::number(0.0));  // 1 lane, not 3
    narrow_shards.append(std::move(buffer));
  }
  narrow.set("shards", std::move(narrow_shards));
  EXPECT_THROW(
      (void)run.parse_state(narrow, "toy-v1", "toydigest", "shards", make),
      std::invalid_argument);
}

}  // namespace
}  // namespace sustainai::engine
