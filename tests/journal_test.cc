// The checkpoint journal (engine/journal.h) and the v2 queue and planet
// snapshots built on it:
//   * EngineJournal.*    — frame codec, journal prefix, live-snapshot stamp;
//   * QueueJournal.*, PlanetJournal.* — a run resumed from a live snapshot
//     plus its journal gives the uninterrupted bytes, and v2 rejection
//     texts are pinned;
//   * CheckpointFiles.*  — every on-disk state a kill can leave resumes to
//     the uninterrupted bytes;
//   * SnapshotMutation.* — mutated snapshots, journals and v1 fixtures throw
//     a typed error or resume to the same bytes, and never crash;
//   * FlatSnapshot.*     — snapshots sized by live state, not history.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "datagen/rng.h"
#include "engine/journal.h"
#include "exec/parallel.h"
#include "report/json.h"
#include "scenario/runner.h"

namespace sustainai {
namespace {

using engine::JournalError;
using engine::JournalPrefix;
using report::JsonValue;
using scenario::CheckpointRequest;

namespace fs = std::filesystem;

// --- fixtures -------------------------------------------------------------

// A 300-job greedy-green queue with preemption faults.
const std::string kQueueSpec = R"({
  "scenario": "queue_schedule", "seed": 5,
  "params": {"jobs": 300, "machines": 12, "arrival_spread_h": 96,
             "duration_h": 6, "slack_h": 12, "policies": ["greedy_green"],
             "faults": {"preemption_per_day": 12, "seed": 11,
                        "max_retries": 50}}})";

// A two-region planet: one hourly year, 35 series windows.
const std::string kPlanetSpec = R"({
  "scenario": "planet", "seed": 3,
  "params": {"years": 1, "step_min": 60, "chunk_steps": 256,
             "regions": [{"name": "west", "grid": {"name": "us-west-solar"}},
                         {"name": "east", "grid": {"name": "us-average"},
                          "utc_offset_h": 5,
                          "faults": {"host_crash_per_day": 1, "seed": 4}}]}})";

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream(path, std::ios::binary) << content;
}

// result.json of a run, or "" when it stopped or failed.
std::string result_of(const scenario::Bundle& bundle) {
  const scenario::Artifact* result = bundle.find("result.json");
  return result == nullptr ? "" : result->content;
}

std::string run(const std::string& spec, CheckpointRequest request = {}) {
  return result_of(scenario::Runner().run_text(spec, nullptr, request));
}

// A run stopped after `stop_after` segments of `segment_steps`: the last
// live snapshot and every frame the run appended.
struct Stopped {
  std::string snapshot;
  std::string journal;
  std::vector<std::string> snapshots;  // every boundary's
};

Stopped stop_at(const std::string& spec, long segment_steps, long stop_after) {
  Stopped s;
  CheckpointRequest request;
  request.segment_steps = segment_steps;
  request.stop_after = stop_after;
  request.append_journal = [&s](const std::string& f) { s.journal += f; };
  request.write_snapshot = [&s](const std::string& snap) {
    s.snapshot = snap;
    s.snapshots.push_back(snap);
  };
  const scenario::Bundle bundle =
      scenario::Runner().run_text(spec, nullptr, request);
  EXPECT_EQ(bundle.stopped, stop_after > 0);
  return s;
}

std::string resume(const std::string& spec, const std::string& snapshot,
                   const std::string& journal, long segment_steps) {
  CheckpointRequest request;
  request.segment_steps = segment_steps;
  request.resume_text = snapshot;
  request.resume_journal = journal;
  return run(spec, request);
}

// A fresh directory per test under the system temp dir.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("sustainai_journal_" + name + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- the frame codec ------------------------------------------------------

JsonValue records(std::initializer_list<double> values) {
  JsonValue a = JsonValue::array();
  for (const double v : values) {
    JsonValue r = JsonValue::object();
    r.set("v", JsonValue::number(v));
    a.append(std::move(r));
  }
  return a;
}

// The frame sealing records({values}) after `from`.
engine::SealedFrame seal(std::initializer_list<double> values,
                         const JournalPrefix& from) {
  return engine::seal_frame(report::canonical_json(records(values)),
                            values.size(), from);
}

TEST(EngineJournal, FramesSplitAndPrefixesChain) {
  const engine::SealedFrame a = seal({1, 2}, {});
  const engine::SealedFrame b = seal({3}, a.covers);
  const std::string payload = report::canonical_json(records({1, 2}));
  EXPECT_EQ(a.frame, std::to_string(payload.size()) + "\n" + payload + "\n");
  EXPECT_EQ(a.covers.bytes, a.frame.size());
  EXPECT_EQ(b.covers.records, 3u);
  EXPECT_EQ(b.covers.fnv, engine::fnv1a(a.frame + b.frame));
  // A segment that sealed nothing appends nothing.
  const engine::SealedFrame none = seal({}, b.covers);
  EXPECT_TRUE(none.frame.empty());
  EXPECT_EQ(none.covers, b.covers);

  std::vector<double> seen;
  const auto collect = [&seen](const JsonValue& frame) {
    for (const JsonValue& r : frame.items()) {
      seen.push_back(r.find("v")->as_number());
    }
  };
  // Bytes past the named prefix (a later, unnamed frame) are ignored.
  engine::read_frames(a.frame + b.frame + "7\n[\n]", {}, b.covers, collect,
                      "test");
  EXPECT_EQ(seen, (std::vector<double>{1, 2, 3}));
  // Reading on from a prefix already in memory takes only the new frame.
  seen.clear();
  engine::read_frames(b.frame, a.covers, b.covers, collect, "test");
  EXPECT_EQ(seen, (std::vector<double>{3}));

  EXPECT_EQ(JournalPrefix::parse(b.covers.json(), "test"), b.covers);
}

// The message read_frames throws, or "accepted".
std::string frames_error(const std::string& journal, const JournalPrefix& to) {
  try {
    engine::read_frames(journal, {}, to, [](const JsonValue&) {}, "test");
  } catch (const JournalError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(EngineJournal, RejectsJournalsThatDoNotHoldTheNamedPrefix) {
  const engine::SealedFrame a = seal({1, 2}, {});
  const std::string& j = a.frame;
  EXPECT_EQ(frames_error(j, a.covers), "accepted");
  EXPECT_EQ(frames_error(j.substr(0, j.size() - 1), a.covers),
            "test: journal is shorter than the snapshot names (" +
                std::to_string(j.size() - 1) + " of " +
                std::to_string(j.size()) + " bytes)");
  std::string flipped = j;
  flipped[j.size() / 2] ^= 1;
  EXPECT_EQ(frames_error(flipped, a.covers),
            "test: journal bytes differ from the ones the snapshot names");
  // Consistent prefixes over bad framing: torn, not an array, miscounted.
  const auto named = [](const std::string& bytes, std::uint64_t n) {
    return JournalPrefix{}.then(bytes, n);
  };
  EXPECT_EQ(frames_error("9\n[]\n", named("9\n[]\n", 0)),
            "test: journal frame is torn or malformed");
  EXPECT_EQ(frames_error("2\n{}\n", named("2\n{}\n", 0)),
            "test: journal frame must hold an array of records");
  EXPECT_EQ(frames_error(j, named(j, 3)),
            "test: journal record count differs from the snapshot's");
  EXPECT_EQ(frames_error(j, named(j, 1)),
            "test: journal holds more records than the snapshot names");
  EXPECT_EQ(frames_error("99999999999999999999\n", named("99999999999999999999\n", 0)),
            "test: journal frame is torn or malformed");
}

TEST(EngineJournal, LiveSnapshotStampCatchesEdits) {
  JsonValue live = JsonValue::object();
  live.set("now_s", JsonValue::number(900));
  engine::finish_live(live, seal({1}, {}).covers);
  const JsonValue parsed = report::parse_json(report::canonical_json(live));
  ASSERT_TRUE(engine::live_prefix(parsed, "test").has_value());
  EXPECT_EQ(engine::live_prefix(parsed, "test")->records, 1u);

  JsonValue edited = parsed;
  edited.set("now_s", JsonValue::number(901));
  EXPECT_THROW((void)engine::live_prefix(edited, "test"), JournalError);
  // A self-contained snapshot names no journal and carries no stamp.
  EXPECT_FALSE(engine::live_prefix(JsonValue::object(), "test").has_value());
}

// --- the queue and planet journal form ------------------------------------

// Stops a run mid-way, then resumes it in a fresh Runner from the last live
// snapshot plus the journal: the uninterrupted bytes.
void expect_resume_identical(const std::string& spec, long segment_steps,
                             long stop_after) {
  const std::string whole = run(spec);
  ASSERT_FALSE(whole.empty());
  const Stopped s = stop_at(spec, segment_steps, stop_after);
  ASSERT_FALSE(s.journal.empty());
  const JsonValue live = report::parse_json(s.snapshot);
  EXPECT_NE(live.find("journal"), nullptr);
  EXPECT_EQ(live.find("outcomes"), nullptr);
  EXPECT_EQ(live.find("series"), nullptr);
  EXPECT_EQ(resume(spec, s.snapshot, s.journal, segment_steps * 3), whole);
  // Journal bytes past the prefix the snapshot names are ignored.
  const Stopped later = stop_at(spec, segment_steps, stop_after + 2);
  EXPECT_EQ(resume(spec, s.snapshot, later.journal, segment_steps), whole);
}

TEST(QueueJournal, LiveSnapshotPlusJournalResumesByteIdentical) {
  expect_resume_identical(kQueueSpec, 97, 4);
}

TEST(PlanetJournal, LiveSnapshotPlusJournalResumesByteIdentical) {
  expect_resume_identical(kPlanetSpec, 1024, 3);
}

// A planet boundary overlaps the next segment's first region: one that
// throws surfaces only after every task of that region has run, and the
// checkpoint it left resumes to the uninterrupted run.
TEST(PlanetSim, BoundaryErrorSurfacesAfterTheOverlappedTasks) {
  const std::string whole = run(kPlanetSpec);
  const fs::path dir = fs::temp_directory_path() /
                       ("sustainai_boundary_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ckpt = (dir / "planet.ckpt").string();
  CheckpointRequest request = CheckpointRequest::on_disk(ckpt, "");
  request.segment_steps = 1792;
  const auto commit = request.write_snapshot;
  int commits = 0;
  exec::CounterSnapshot at_throw;
  request.write_snapshot = [&](const std::string& snapshot) {
    if (++commits == 2) {
      at_throw = exec::counters();
      throw std::runtime_error("disk full");
    }
    commit(snapshot);
  };
  EXPECT_THROW((void)run(kPlanetSpec, request), std::runtime_error);
  const exec::CounterSnapshot after = exec::counters();
  EXPECT_EQ(after.parallel_regions, at_throw.parallel_regions + 1);
  EXPECT_GT(after.chunks_executed, at_throw.chunks_executed);

  CheckpointRequest resumed = CheckpointRequest::on_disk("", ckpt);
  resumed.segment_steps = 1792;
  EXPECT_EQ(run(kPlanetSpec, resumed), whole);
  fs::remove_all(dir);
}

// A run stopped after k segments computes exactly k segments' tasks: the
// boundary a stop ends runs alone. 8760 hourly steps in 1792-step segments
// are five segments of equal task counts (2 regions x 7 chunks, 2 fills).
TEST(PlanetSim, StopAfterRunsExactlyItsSegmentsTasks) {
  const auto chunks = [](long stop_after) {
    CheckpointRequest request;
    request.segment_steps = 1792;
    request.stop_after = stop_after;
    const exec::CounterSnapshot before = exec::counters();
    (void)scenario::Runner().run_text(kPlanetSpec, nullptr, request);
    return exec::counters().chunks_executed - before.chunks_executed;
  };
  const std::uint64_t one = chunks(1);
  const std::uint64_t two = chunks(2);
  const std::uint64_t all = chunks(0);
  const std::uint64_t segment = two - one;
  EXPECT_EQ(segment, 16u);
  EXPECT_EQ(all - two, 3 * segment);
  EXPECT_EQ(chunks(3), two + segment);
}

TEST(QueueJournal, SegmentedMatchesWholeAtEveryStride) {
  const std::string whole = run(kQueueSpec);
  for (const long stride : {1L, 7L, 500L, 100000L}) {
    CheckpointRequest request;
    request.segment_steps = stride;
    EXPECT_EQ(run(kQueueSpec, request), whole) << "stride=" << stride;
  }
}

// The message a resume throws, or "accepted".
std::string resume_error(const std::string& spec, const std::string& snapshot,
                         const std::string& journal) {
  try {
    (void)resume(spec, snapshot, journal, 50);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

// A mid-run v2 snapshot with its stamp recomputed after `edit`, so the
// edit reaches the field checks.
std::string edited(const std::string& snapshot,
                   const std::function<void(JsonValue&)>& edit) {
  JsonValue live = report::parse_json(snapshot);
  JsonValue body = JsonValue::object();
  for (const JsonValue::Member& m : live.members()) {
    if (m.first != "snapshot_fnv1a" && m.first != "journal") {
      body.set(m.first, m.second);
    }
  }
  edit(body);
  engine::finish_live(
      body, JournalPrefix::parse(*live.find("journal"), "test"));
  return report::canonical_json(body);
}

TEST(QueueJournal, V2RejectionTextsArePinned) {
  const Stopped s = stop_at(kQueueSpec, 97, 4);
  ASSERT_EQ(resume_error(kQueueSpec, s.snapshot, s.journal), "accepted");
  const auto error = [&](const std::function<void(JsonValue&)>& edit) {
    return resume_error(kQueueSpec, edited(s.snapshot, edit), s.journal);
  };
  const auto fault_jobs = [](JsonValue& root) -> JsonValue& {
    return *root.find("faults")->find("jobs");
  };
  JsonValue live = report::parse_json(s.snapshot);
  ASSERT_GE(fault_jobs(live).items().size(), 2u);

  EXPECT_EQ(error([&](JsonValue& r) {
              JsonValue jobs = fault_jobs(r);
              JsonValue twice = JsonValue::array();
              twice.append(jobs.items()[1]);
              twice.append(jobs.items()[0]);
              r.find("faults")->set("jobs", std::move(twice));
            }),
            "queue checkpoint: faults.jobs entries must be in ascending job "
            "order, one per job");
  EXPECT_EQ(error([&](JsonValue& r) {
              JsonValue jobs = JsonValue::array();
              for (int i = 0; i < 301; ++i) {
                jobs.append(fault_jobs(r).items()[0]);
              }
              r.find("faults")->set("jobs", std::move(jobs));
            }),
            "queue checkpoint: faults.jobs must be an array of at most one "
            "entry per job");
  EXPECT_EQ(error([&](JsonValue& r) {
              JsonValue jobs = JsonValue::array();
              JsonValue entry = fault_jobs(r).items()[0];
              entry.set("preempt_count", JsonValue::number(1.5));
              jobs.append(std::move(entry));
              r.find("faults")->set("jobs", std::move(jobs));
            }),
            "queue checkpoint: faults.preempt_count entries must be whole "
            "numbers in int range");
  EXPECT_EQ(error([&](JsonValue& r) {
              JsonValue jobs = JsonValue::array();
              JsonValue entry = fault_jobs(r).items()[0];
              entry.set("job", JsonValue::number(300));
              jobs.append(std::move(entry));
              r.find("faults")->set("jobs", std::move(jobs));
            }),
            "queue checkpoint: fault entry job index out of range");
  EXPECT_EQ(error([](JsonValue& r) {
              r.set("now_s", JsonValue::number(-900));
            }),
            "queue checkpoint: now_s out of range");
  // The stamp covers every member: an edit without it is named.
  JsonValue unstamped = report::parse_json(s.snapshot);
  unstamped.set("busy_machine_s", JsonValue::number(1));
  EXPECT_EQ(resume_error(kQueueSpec, report::canonical_json(unstamped),
                         s.journal),
            "queue checkpoint: snapshot differs from its snapshot_fnv1a stamp");
  // The journal must hold the prefix the snapshot names.
  EXPECT_EQ(resume_error(kQueueSpec, s.snapshot, ""),
            "queue checkpoint: journal is shorter than the snapshot names (0 "
            "of " + std::to_string(s.journal.size()) + " bytes)");
  EXPECT_EQ(error([](JsonValue& r) {
              r.set("schema", JsonValue::string("sustainai-queue-checkpoint-v3"));
            }),
            "queue checkpoint: unknown schema");
}

TEST(PlanetJournal, V2RejectionTextsArePinned) {
  const Stopped s = stop_at(kPlanetSpec, 1024, 3);
  ASSERT_EQ(resume_error(kPlanetSpec, s.snapshot, s.journal), "accepted");
  // A journal from the same run but a different cut names other windows.
  const Stopped other = stop_at(kPlanetSpec, 1024, 2);
  EXPECT_EQ(resume_error(kPlanetSpec, other.snapshot, s.journal), "accepted");
  EXPECT_EQ(resume_error(kPlanetSpec, s.snapshot, other.journal),
            "planet checkpoint: journal is shorter than the snapshot names (" +
                std::to_string(other.journal.size()) + " of " +
                std::to_string(s.journal.size()) + " bytes)");
  EXPECT_EQ(resume_error(kPlanetSpec,
                         edited(s.snapshot,
                                [](JsonValue& r) {
                                  r.set("next_step", JsonValue::number(2048));
                                }),
                         s.journal),
            "planet checkpoint: journal names a window count that does not "
            "match next_step");
}

// --- on-disk kill states --------------------------------------------------

// What `sustainai run --checkpoint <path> [--resume <from>]` does.
std::string run_on_disk(const std::string& spec, const fs::path& path,
                        const fs::path& from, long segment_steps,
                        long stop_after = 0) {
  CheckpointRequest request = CheckpointRequest::on_disk(
      path.string(), from.empty() ? "" : from.string());
  request.segment_steps = segment_steps;
  request.stop_after = stop_after;
  return run(spec, request);
}

// Each state a SIGKILL can leave behind resumes to the uninterrupted bytes:
// a frame appended but no new snapshot (a journal longer than the snapshot
// names), a torn frame, a stray temp snapshot, and a resume that writes to
// a second path.
TEST(CheckpointFiles, EveryKillStateResumesByteIdentical) {
  for (const std::string* spec : {&kQueueSpec, &kPlanetSpec}) {
    const long stride = spec == &kQueueSpec ? 97 : 1024;
    SCOPED_TRACE(spec == &kQueueSpec ? "queue" : "planet");
    const std::string whole = run(*spec);
    const fs::path dir = scratch_dir("kill");
    const fs::path a = dir / "a.json";
    const fs::path later = dir / "later.json";
    ASSERT_EQ(run_on_disk(*spec, a, "", stride, 2), "");
    ASSERT_EQ(run_on_disk(*spec, later, "", stride, 3), "");
    const std::string snapshot = read_file(a);
    const std::string journal = read_file(engine::journal_path(a.string()));
    const std::string later_journal =
        read_file(engine::journal_path(later.string()));
    ASSERT_GT(later_journal.size(), journal.size());
    ASSERT_EQ(later_journal.substr(0, journal.size()), journal);
    const auto reset = [&](const std::string& journal_bytes) {
      write_file(a, snapshot);
      write_file(engine::journal_path(a.string()), journal_bytes);
    };

    // Killed after the append, before the rename.
    reset(later_journal);
    EXPECT_EQ(run_on_disk(*spec, a, a, stride), whole);
    // The resumed run cut the unnamed tail before appending.
    const std::string finished_journal =
        read_file(engine::journal_path(a.string()));
    EXPECT_EQ(finished_journal.substr(0, journal.size()), journal);

    // Killed in the middle of the append: a torn frame.
    reset(later_journal.substr(0, journal.size() +
                                      (later_journal.size() - journal.size()) / 2));
    EXPECT_EQ(run_on_disk(*spec, a, a, stride), whole);
    EXPECT_EQ(read_file(engine::journal_path(a.string())), finished_journal);

    // Killed while writing the temp snapshot.
    reset(journal);
    write_file(dir / "a.json.tmp", snapshot.substr(0, snapshot.size() / 3));
    EXPECT_EQ(run_on_disk(*spec, a, a, stride), whole);
    EXPECT_FALSE(fs::exists(dir / "a.json.tmp"));

    // --resume A --checkpoint B: A is left as it was; B, with a stale
    // journal of its own, becomes a complete checkpoint of its own.
    reset(later_journal);
    const fs::path b = dir / "b.json";
    write_file(engine::journal_path(b.string()), "stale bytes");
    EXPECT_EQ(run_on_disk(*spec, b, a, stride, 1), "");
    EXPECT_EQ(read_file(a), snapshot);
    EXPECT_EQ(read_file(engine::journal_path(a.string())), later_journal);
    EXPECT_EQ(run_on_disk(*spec, b, b, stride), whole);
    EXPECT_EQ(read_file(engine::journal_path(b.string())), finished_journal);
    fs::remove_all(dir);
  }
}

// A resume into a second path whose first segment seals nothing still
// leaves that path a complete checkpoint: the snapshot names the resumed
// prefix, so the journal is written before the snapshot.
TEST(CheckpointFiles, ResumeIntoSecondPathBeforeAnyNewRecord) {
  const std::string whole = run(kQueueSpec);
  const fs::path dir = scratch_dir("second");
  const fs::path a = dir / "a.json";
  const fs::path b = dir / "b.json";
  ASSERT_EQ(run_on_disk(kQueueSpec, a, "", 97, 2), "");
  const std::string journal = read_file(engine::journal_path(a.string()));
  ASSERT_EQ(run_on_disk(kQueueSpec, b, a, 1, 1), "");
  EXPECT_EQ(read_file(engine::journal_path(b.string())), journal);
  EXPECT_EQ(run_on_disk(kQueueSpec, b, b, 97), whole);
  fs::remove_all(dir);
}

TEST(CheckpointFiles, MissingOrShortJournalIsNamed) {
  const fs::path dir = scratch_dir("short");
  const fs::path a = dir / "a.json";
  ASSERT_EQ(run_on_disk(kQueueSpec, a, "", 97, 2), "");
  const std::string journal = engine::journal_path(a.string());
  const std::string bytes = read_file(journal);
  write_file(journal, bytes.substr(0, bytes.size() - 10));
  try {
    (void)engine::read_checkpoint(a.string());
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("holds " +
                                         std::to_string(bytes.size() - 10) +
                                         " bytes, the snapshot names " +
                                         std::to_string(bytes.size())),
              std::string::npos)
        << e.what();
  }
  fs::remove(journal);
  EXPECT_THROW((void)engine::read_checkpoint(a.string()), std::invalid_argument);
  fs::remove_all(dir);
}

// --- mutations ------------------------------------------------------------

// What one mutated resume did: threw a typed error, failed the run by name
// (error.json), or finished with these result bytes.
struct Outcome {
  bool rejected = false;
  std::string result;
};

Outcome try_resume(const std::string& spec, const std::string& snapshot,
                   const std::string& journal) {
  Outcome o;
  try {
    CheckpointRequest request;
    request.segment_steps = 500;
    request.resume_text = snapshot;
    request.resume_journal = journal;
    const scenario::Bundle b =
        scenario::Runner().run_text(spec, nullptr, request);
    o.rejected = b.failed;
    o.result = result_of(b);
  } catch (const std::invalid_argument&) {
    o.rejected = true;
  } catch (const report::JsonParseError&) {
    o.rejected = true;
  }
  return o;
}

// Byte flips, truncations and field edits of `text`, `count` of them.
std::vector<std::string> mutants(const std::string& text, int count,
                                 std::uint64_t seed) {
  datagen::Rng rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const JsonValue parsed = report::parse_json(text);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    std::string m = text;
    switch (i % 3) {
      case 0:  // one flipped bit
        m[pick(m.size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1:  // truncation
        m.resize(pick(m.size()));
        break;
      default: {  // one top-level member replaced or dropped
        JsonValue root = JsonValue::object();
        const std::size_t victim = pick(parsed.members().size());
        const JsonValue hostile[] = {
            JsonValue::null(), JsonValue::string("x"), JsonValue::number(-1),
            JsonValue::number(1e300), JsonValue::array(), JsonValue::object()};
        for (std::size_t k = 0; k < parsed.members().size(); ++k) {
          const JsonValue::Member& member = parsed.members()[k];
          if (k != victim) {
            root.set(member.first, member.second);
          } else if (pick(7) != 6) {
            root.set(member.first, hostile[pick(6)]);
          }
        }
        m = report::canonical_json(root);
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

// Journal-form snapshots and journals are stamped and hashed, so every
// mutation is either rejected or harmless: the same bytes.
TEST(SnapshotMutation, V2SnapshotsAndJournalsRejectOrResumeIdentical) {
  for (const std::string* spec : {&kQueueSpec, &kPlanetSpec}) {
    SCOPED_TRACE(spec == &kQueueSpec ? "queue" : "planet");
    const std::string whole = run(*spec);
    const Stopped s = stop_at(*spec, spec == &kQueueSpec ? 97 : 1024, 3);
    int rejected = 0;
    for (const std::string& m : mutants(s.snapshot, 60, 17)) {
      const Outcome o = try_resume(*spec, m, s.journal);
      if (!o.rejected) {
        EXPECT_EQ(o.result, whole) << m;
      }
      rejected += o.rejected;
    }
    EXPECT_GT(rejected, 30);
    // Journal bytes: flips and truncations inside the prefix are named;
    // bytes appended past it change nothing.
    datagen::Rng rng(23);
    for (int i = 0; i < 40; ++i) {
      std::string j = s.journal;
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(j.size()) - 1));
      if (i % 2 == 0) {
        j[at] ^= 0x10;
      } else {
        j.resize(at);
      }
      EXPECT_TRUE(try_resume(*spec, s.snapshot, j).rejected) << i;
    }
    EXPECT_EQ(try_resume(*spec, s.snapshot, s.journal + "12\n[\n  {}\n]\ngarbage")
                  .result,
              whole);
  }
}

// v1 snapshots carry no stamp, so a mutated number can be a valid, different
// run; each mutant must still be rejected by name or run to completion
// without a crash, and a mutant that parses to the same document must give
// the same bytes.
TEST(SnapshotMutation, V1FixturesRejectOrRunToCompletion) {
  const fs::path fixtures = fs::path(SUSTAINAI_SOURCE_DIR) / "tests" / "fixtures";
  const std::string queue_spec = read_file(fixtures / "queue_preempt_spec.json");
  const std::string planet_spec =
      read_file(fs::path(SUSTAINAI_SOURCE_DIR) / "scenarios" /
                "planetary_decade.json");
  const struct {
    const std::string* spec;
    const char* file;
    int count;
  } cases[] = {{&queue_spec, "queue_preempt_v1.json", 45},
               {&planet_spec, "planetary_decade_v1.json", 24}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.file);
    const std::string snapshot = read_file(fixtures / c.file);
    const std::string whole = try_resume(*c.spec, snapshot, "").result;
    ASSERT_FALSE(whole.empty());
    const std::string canonical =
        report::canonical_json(report::parse_json(snapshot));
    for (const std::string& m : mutants(snapshot, c.count, 29)) {
      const Outcome o = try_resume(*c.spec, m, "");
      if (o.rejected) {
        continue;
      }
      EXPECT_FALSE(o.result.empty());
      if (report::canonical_json(report::parse_json(m)) == canonical) {
        EXPECT_EQ(o.result, whole);
      }
    }
  }
}

// --- snapshot size follows live state -------------------------------------

// The queue_checkpointed perfbench shape: 8000 jobs on 32 machines.
const std::string kBigQueueSpec = R"({
  "scenario": "queue_schedule", "seed": 1,
  "params": {"jobs": 8000, "machines": 32, "arrival_spread_h": 1400,
             "power_kw": 22.5, "policies": ["greedy_green"],
             "max_horizon_days": 64}})";

std::size_t largest(const std::vector<std::string>& snapshots) {
  std::size_t most = 0;
  for (const std::string& s : snapshots) {
    most = std::max(most, s.size());
  }
  return most;
}

// Records across every frame of a journal.
std::uint64_t journal_records(const std::string& journal,
                              const std::string& last_snapshot) {
  std::uint64_t n = 0;
  const JournalPrefix to =
      *engine::live_prefix(report::parse_json(last_snapshot), "test");
  engine::read_frames(
      journal, {}, to, [&n](const JsonValue& f) { n += f.items().size(); },
      "test");
  return n;
}

// `snapshot` without the members that name the journal, which differ with
// how the journal was cut into frames.
std::string live_state(const std::string& snapshot) {
  const JsonValue parsed = report::parse_json(snapshot);
  JsonValue body = JsonValue::object();
  for (const JsonValue::Member& m : parsed.members()) {
    if (m.first != "journal" && m.first != "snapshot_fnv1a") {
      body.set(m.first, m.second);
    }
  }
  return report::canonical_json(body);
}

// Cut into 8 and into 64 segments (every 8th boundary of the second run is
// one of the first's), the run's snapshots stay under 16 KB, the journal
// holds each of the 8000 outcomes once, and a snapshot at a shared boundary
// holds the same live state either way: its size follows the step, not the
// segment count or the history before it.
TEST(FlatSnapshot, QueueSnapshotsHoldLiveStateOnly) {
  std::vector<std::string> coarse;
  for (const long segment_steps : {768L, 96L}) {
    SCOPED_TRACE(segment_steps);
    Stopped s;
    CheckpointRequest request;
    request.segment_steps = segment_steps;
    request.append_journal = [&s](const std::string& f) { s.journal += f; };
    request.write_snapshot = [&s](const std::string& snap) {
      s.snapshot = snap;
      s.snapshots.push_back(snap);
    };
    ASSERT_FALSE(run(kBigQueueSpec, request).empty());
    EXPECT_LE(largest(s.snapshots), 16u * 1024u);
    EXPECT_EQ(journal_records(s.journal, s.snapshot), 8000u);
    if (segment_steps == 768) {
      EXPECT_GE(s.snapshots.size(), 7u);
      coarse = s.snapshots;
      continue;
    }
    EXPECT_GE(s.snapshots.size(), 56u);
    for (std::size_t i = 0; i + 1 < coarse.size(); ++i) {
      ASSERT_LT(8 * i + 7, s.snapshots.size());
      EXPECT_EQ(live_state(s.snapshots[8 * i + 7]), live_state(coarse[i]))
          << "boundary " << i;
    }
  }
}

// The fault state a snapshot carries is per unfinished job: at most one
// entry per running or queued job, none once every job has finished.
TEST(FlatSnapshot, QueueFaultEntriesCoverUnfinishedJobsOnly) {
  CheckpointRequest request;
  request.segment_steps = 97;
  std::vector<std::string> snapshots;
  request.write_snapshot = [&snapshots](const std::string& snap) {
    snapshots.push_back(snap);
  };
  ASSERT_FALSE(run(kQueueSpec, request).empty());
  std::size_t most = 0;
  for (const std::string& snap : snapshots) {
    const JsonValue live = report::parse_json(snap);
    const std::size_t entries =
        live.find("faults")->find("jobs")->items().size();
    EXPECT_LE(entries, live.find("running")->items().size() +
                           live.find("queue")->items().size());
    most = std::max(most, entries);
  }
  EXPECT_GT(most, 0u);
  EXPECT_EQ(report::parse_json(snapshots.back())
                .find("faults")->find("jobs")->items().size(),
            0u);
}

TEST(FlatSnapshot, PlanetSnapshotsDoNotGrowWithTheSeries) {
  const std::string spec = R"({
    "scenario": "planet", "seed": 2,
    "params": {"years": 5, "step_min": 60, "chunk_steps": 64,
               "checkpoint_segments": 64,
               "regions": [{"name": "solo", "grid": {"name": "nordic-hydro"}}]}})";
  Stopped s;
  CheckpointRequest request;
  request.append_journal = [&s](const std::string& f) { s.journal += f; };
  request.write_snapshot = [&s](const std::string& snap) {
    s.snapshot = snap;
    s.snapshots.push_back(snap);
  };
  ASSERT_FALSE(run(spec, request).empty());
  ASSERT_GE(s.snapshots.size(), 60u);
  // One record per 64-step window of the whole horizon.
  const auto steps = static_cast<std::uint64_t>(
      report::parse_json(s.snapshot).find("next_step")->as_number());
  EXPECT_EQ(journal_records(s.journal, s.snapshot), (steps + 63) / 64);
  std::size_t smallest = s.snapshots.front().size();
  for (const std::string& snap : s.snapshots) {
    smallest = std::min(smallest, snap.size());
  }
  // Only number widths vary: the last snapshot is no larger than the first
  // few hundred bytes more, although it covers 64 times the series.
  EXPECT_LE(largest(s.snapshots), smallest + 256);
  EXPECT_LE(largest(s.snapshots), 4u * 1024u);
}

}  // namespace
}  // namespace sustainai
