// Append-only checkpoint journal (DESIGN.md §11).
//
// A simulator with history (the queue's finished jobs, the planet's closed
// series windows) splits its checkpoint in two: a small live snapshot and
// a journal of sealed records. A record is sealed once: the segment that
// seals it serializes it into one journal frame, and no later snapshot
// repeats it. A live snapshot names the journal prefix it covers by byte
// length, record count and a running FNV-1a over those bytes, so bytes
// past the prefix (a frame appended by a run killed before its snapshot
// landed) are ignored, and a journal that does not match is rejected by
// name.
//
// A frame is the decimal byte length of its payload, a newline, the
// payload and a newline. The payload is the canonical JSON of an array of
// records, so the journal splits into frames without a JSON parser and
// each frame parses on its own.
//
// On disk the journal is `<checkpoint>.journal`. CheckpointWriter commits
// a boundary as: append the frame (O_APPEND), write the snapshot to
// `<checkpoint>.tmp`, rename it over `<checkpoint>`. A kill leaves the old
// snapshot or the new one, each naming a journal prefix that is on disk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "engine/snapshot.h"
#include "report/json.h"

namespace sustainai::engine {

// A journal that does not hold the prefix its snapshot names: too short,
// different bytes, a torn or malformed frame inside the prefix, or a
// record count that disagrees. A std::invalid_argument, like every other
// bad-checkpoint error.
class JournalError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// The journal prefix a live snapshot covers.
struct JournalPrefix {
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t fnv = kFnvOffsetBasis;

  // This prefix followed by `frame`, which holds `frame_records` records.
  [[nodiscard]] JournalPrefix then(std::string_view frame,
                                   std::uint64_t frame_records) const;

  // The snapshot's "journal" member: {"bytes", "fnv1a", "records"}.
  [[nodiscard]] report::JsonValue json() const;
  // Inverse of json(); throws std::invalid_argument prefixed by `context`.
  [[nodiscard]] static JournalPrefix parse(const report::JsonValue& value,
                                           const char* context);

  bool operator==(const JournalPrefix&) const = default;
};

// Completes a live snapshot: the "journal" member naming `covers`, then
// "snapshot_fnv1a", an FNV-1a over a canonical image of every other member
// (their values' bits in key order; no text is rendered). The stamp makes
// any edit of the live state a named error instead of a silently
// different run, and whitespace alone changes nothing.
void finish_live(report::JsonValue& root, const JournalPrefix& covers);

// The journal prefix a live snapshot names, after checking its stamp;
// nullopt for a self-contained snapshot (no "journal" member). Throws
// JournalError or std::invalid_argument prefixed by `context`.
[[nodiscard]] std::optional<JournalPrefix> live_prefix(
    const report::JsonValue& value, const char* context);

// A segment's newly sealed records as one frame, and the prefix a snapshot
// taken after appending it covers. `frame` is empty when the segment
// sealed no record; `covers` is then the previous prefix.
struct SealedFrame {
  std::string frame;
  JournalPrefix covers;
};

// Frames `payload`, the canonical JSON of an array of `records` records
// (written through report::CanonicalWriter), after the prefix `from`. No
// record means no frame.
[[nodiscard]] SealedFrame seal_frame(std::string_view payload,
                                     std::uint64_t records,
                                     const JournalPrefix& from);

// Reads the frames that extend prefix `from` to prefix `to` out of `tail`,
// the journal bytes that follow `from`; bytes past `to` are ignored. The
// byte count and the FNV-1a are checked before any frame is parsed, and
// each frame's record count against what the snapshot names before it is
// handed on. `read(array)` takes one frame's records, all of them; the
// frames together must hold `to.records - from.records`. Throws
// JournalError prefixed by `context`.
void read_frames(std::string_view tail, const JournalPrefix& from,
                 const JournalPrefix& to,
                 const std::function<void(const report::JsonValue&)>& read,
                 const char* context);

// --- on disk --------------------------------------------------------------

// `<checkpoint>.journal`.
[[nodiscard]] std::string journal_path(const std::string& checkpoint);

// A checkpoint read back from disk: the snapshot text and the journal
// bytes it names (empty when it names none, as a v1 or self-contained
// snapshot does).
struct StoredCheckpoint {
  std::string snapshot;
  std::string journal;
};

// Reads `<path>` and the prefix of `<path>.journal` its snapshot names.
// Throws std::invalid_argument naming the file that is missing, not JSON,
// or shorter than the snapshot says.
[[nodiscard]] StoredCheckpoint read_checkpoint(const std::string& path);

// Writes a run's checkpoints to `<path>` and `<path>.journal` in the
// commit order above. `resumed` holds the journal prefix the run resumed
// from: the first append starts the journal with exactly those bytes (a
// truncation when the journal is the resumed one, a copy otherwise), so
// bytes a killed run appended past its last snapshot go.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, std::string resumed);
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  // Appends one frame (an empty frame appends nothing).
  void append(std::string_view frame);
  // Replaces the snapshot: `<path>.tmp`, then rename over `<path>`
  // (write_file_atomically).
  void commit(const std::string& snapshot);

 private:
  void start_journal();

  std::string path_;
  std::string resumed_;
  int journal_fd_ = -1;  // open from the first append on
};

}  // namespace sustainai::engine
