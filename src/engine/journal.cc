#include "engine/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <utility>
#include <vector>

#include "core/atomic_file.h"

namespace sustainai::engine {

namespace {

// Longest frame header: 19 decimal digits cannot overflow 64 bits.
constexpr std::size_t kMaxHeaderDigits = 19;

[[noreturn]] void journal_error(const char* context, const std::string& what) {
  throw JournalError(std::string(context) + ": journal " + what);
}

// Reads up to `limit` bytes of `fd` from offset 0 into `out`.
bool read_prefix(int fd, std::size_t limit, std::string& out) {
  out.resize(limit);
  std::size_t got = 0;
  while (got < limit) {
    const ssize_t n = ::pread(fd, out.data() + got, limit - got,
                              static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return true;
}

// The whole of the regular file `path`, or false when it cannot be read.
bool read_file(const std::string& path, std::size_t limit, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  const bool ok = read_prefix(fd, limit, out);
  ::close(fd);
  return ok;
}

}  // namespace

JournalPrefix JournalPrefix::then(std::string_view frame,
                                  std::uint64_t frame_records) const {
  JournalPrefix next;
  next.bytes = bytes + frame.size();
  next.records = records + frame_records;
  next.fnv = fnv1a(frame, fnv);
  return next;
}

report::JsonValue JournalPrefix::json() const {
  report::JsonValue j = report::JsonValue::object();
  j.set("bytes", report::JsonValue::number(static_cast<double>(bytes)));
  j.set("records", report::JsonValue::number(static_cast<double>(records)));
  j.set("fnv1a", report::JsonValue::string(hex64(fnv)));
  return j;
}

JournalPrefix JournalPrefix::parse(const report::JsonValue& value,
                                   const char* context) {
  const auto fail = [context](const char* what) {
    throw std::invalid_argument(std::string(context) + ": \"journal\" " + what);
  };
  if (!value.is_object()) {
    fail("must be an object");
  }
  JournalPrefix p;
  const long bytes = require_integer(value, "bytes", context);
  const long records = require_integer(value, "records", context);
  if (bytes < 0 || records < 0 || records > bytes) {
    fail("counts out of range");
  }
  p.bytes = static_cast<std::uint64_t>(bytes);
  p.records = static_cast<std::uint64_t>(records);
  const report::JsonValue& hex = require_member(value, "fnv1a", context);
  if (!hex.is_string() || hex.as_string().size() != 16) {
    fail("fnv1a must be 16 hex digits");
  }
  p.fnv = 0;
  for (const char c : hex.as_string()) {
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      fail("fnv1a must be 16 hex digits");
    }
    p.fnv = (p.fnv << 4) | static_cast<std::uint64_t>(digit);
  }
  return p;
}

namespace {

constexpr const char* kStampKey = "snapshot_fnv1a";

// Feeds `bits` least significant byte first, so the stamp is the same on
// any byte order.
std::uint64_t feed(std::uint64_t bits, std::uint64_t h) {
  char bytes[8];
  for (char& b : bytes) {
    b = static_cast<char>(bits & 0xff);
    bits >>= 8;
  }
  return fnv1a(std::string_view(bytes, sizeof(bytes)), h);
}

std::uint64_t feed(const std::string& text, std::uint64_t h) {
  return fnv1a(text, feed(text.size(), h));
}

// FNV-1a over a canonical image of `v`, with no text rendered: a kind
// byte, then a number's bits, a string's bytes, an array's items, or an
// object's members in key order (the order canonical_json writes). A
// top-level member named `skip` is left out.
std::uint64_t digest(const report::JsonValue& v, std::uint64_t h,
                     const char* skip = nullptr) {
  h = feed(static_cast<std::uint64_t>(v.kind()), h);
  switch (v.kind()) {
    case report::JsonValue::Kind::kNull:
      return h;
    case report::JsonValue::Kind::kBool:
      return feed(static_cast<std::uint64_t>(v.as_bool()), h);
    case report::JsonValue::Kind::kNumber:
      return feed(std::bit_cast<std::uint64_t>(v.as_number()), h);
    case report::JsonValue::Kind::kString:
      return feed(v.as_string(), h);
    case report::JsonValue::Kind::kArray:
      for (const report::JsonValue& item : v.items()) {
        h = digest(item, h);
      }
      return feed(v.items().size(), h);
    case report::JsonValue::Kind::kObject: {
      std::vector<const report::JsonValue::Member*> members;
      members.reserve(v.members().size());
      for (const report::JsonValue::Member& m : v.members()) {
        if (skip == nullptr || m.first != skip) {
          members.push_back(&m);
        }
      }
      std::sort(members.begin(), members.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      for (const report::JsonValue::Member* m : members) {
        h = digest(m->second, feed(m->first, h));
      }
      return feed(members.size(), h);
    }
  }
  return h;
}

std::string stamp_of(const report::JsonValue& root) {
  return hex64(digest(root, kFnvOffsetBasis, kStampKey));
}

}  // namespace

void finish_live(report::JsonValue& root, const JournalPrefix& covers) {
  root.set("journal", covers.json());
  root.set(kStampKey, report::JsonValue::string(stamp_of(root)));
}

std::optional<JournalPrefix> live_prefix(const report::JsonValue& value,
                                         const char* context) {
  const report::JsonValue* named = value.find("journal");
  if (named == nullptr) {
    return std::nullopt;
  }
  const report::JsonValue& stamp = require_member(value, kStampKey, context);
  if (!stamp.is_string() || stamp.as_string() != stamp_of(value)) {
    throw JournalError(std::string(context) +
                       ": snapshot differs from its snapshot_fnv1a stamp");
  }
  return JournalPrefix::parse(*named, context);
}

SealedFrame seal_frame(std::string_view payload, std::uint64_t records,
                       const JournalPrefix& from) {
  SealedFrame sealed;
  sealed.covers = from;
  if (records == 0) {
    return sealed;
  }
  sealed.frame = std::to_string(payload.size());
  sealed.frame.reserve(sealed.frame.size() + payload.size() + 2);
  sealed.frame += '\n';
  sealed.frame += payload;
  sealed.frame += '\n';
  sealed.covers = from.then(sealed.frame, records);
  return sealed;
}

void read_frames(std::string_view tail, const JournalPrefix& from,
                 const JournalPrefix& to,
                 const std::function<void(const report::JsonValue&)>& read,
                 const char* context) {
  if (to.bytes < from.bytes || to.records < from.records) {
    journal_error(context, "prefix does not extend the records already read");
  }
  const std::uint64_t want = to.bytes - from.bytes;
  if (want > tail.size()) {
    journal_error(context, "is shorter than the snapshot names (" +
                               std::to_string(from.bytes + tail.size()) +
                               " of " + std::to_string(to.bytes) + " bytes)");
  }
  std::string_view rest = tail.substr(0, static_cast<std::size_t>(want));
  if (fnv1a(rest, from.fnv) != to.fnv) {
    journal_error(context, "bytes differ from the ones the snapshot names");
  }
  std::uint64_t records = 0;
  while (!rest.empty()) {
    std::size_t digits = 0;
    std::uint64_t length = 0;
    while (digits < rest.size() && digits < kMaxHeaderDigits &&
           rest[digits] >= '0' && rest[digits] <= '9') {
      length = length * 10 + static_cast<std::uint64_t>(rest[digits] - '0');
      ++digits;
    }
    if (digits == 0 || digits >= rest.size() || rest[digits] != '\n' ||
        length >= rest.size() - digits - 1 ||
        rest[digits + 1 + length] != '\n') {
      journal_error(context, "frame is torn or malformed");
    }
    const report::JsonValue frame =
        report::parse_json(rest.substr(digits + 1, length));
    if (!frame.is_array()) {
      journal_error(context, "frame must hold an array of records");
    }
    records += frame.items().size();
    if (records > to.records - from.records) {
      journal_error(context, "holds more records than the snapshot names");
    }
    read(frame);
    rest.remove_prefix(digits + 2 + length);
  }
  if (records != to.records - from.records) {
    journal_error(context, "record count differs from the snapshot's");
  }
}

// --- on disk --------------------------------------------------------------

std::string journal_path(const std::string& checkpoint) {
  return checkpoint + ".journal";
}

StoredCheckpoint read_checkpoint(const std::string& path) {
  StoredCheckpoint stored;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 ||
      !read_file(path, static_cast<std::size_t>(st.st_size), stored.snapshot)) {
    throw std::invalid_argument("cannot resume: checkpoint file '" + path +
                                "' is missing or unreadable");
  }
  report::JsonValue value;
  try {
    value = report::parse_json(stored.snapshot);
  } catch (const report::JsonParseError& e) {
    throw std::invalid_argument(
        "cannot resume from '" + path + "': not valid JSON (" +
        std::string(e.what()) +
        "); the checkpoint file may be truncated or corrupt");
  }
  const report::JsonValue* named =
      value.is_object() ? value.find("journal") : nullptr;
  if (named == nullptr) {
    return stored;
  }
  JournalPrefix prefix;
  try {
    prefix = JournalPrefix::parse(*named, "checkpoint");
  } catch (const std::invalid_argument&) {
    return stored;  // the simulator names the bad member when it parses
  }
  const std::string journal = journal_path(path);
  struct stat jst{};
  if (prefix.bytes > 0 && ::stat(journal.c_str(), &jst) != 0) {
    throw std::invalid_argument("cannot resume: journal file '" + journal +
                                "' is missing or unreadable");
  }
  // Sizes first: a hostile byte count must not size an allocation.
  if (prefix.bytes > static_cast<std::uint64_t>(jst.st_size)) {
    throw JournalError("cannot resume from '" + path + "': journal '" +
                       journal + "' holds " + std::to_string(jst.st_size) +
                       " bytes, the snapshot names " +
                       std::to_string(prefix.bytes));
  }
  if (prefix.bytes > 0 &&
      !read_file(journal, static_cast<std::size_t>(prefix.bytes),
                 stored.journal)) {
    throw std::invalid_argument("cannot resume: journal file '" + journal +
                                "' is missing or unreadable");
  }
  return stored;
}

CheckpointWriter::CheckpointWriter(std::string path, std::string resumed)
    : path_(std::move(path)), resumed_(std::move(resumed)) {}

CheckpointWriter::~CheckpointWriter() {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
  }
}

void CheckpointWriter::start_journal() {
  // Starts the journal as exactly the resumed prefix. When the file already
  // begins with it (it is the resumed journal), only the tail a killed run
  // appended is cut, so the old snapshot stays resumable throughout.
  const std::string journal = journal_path(path_);
  journal_fd_ = ::open(journal.c_str(),
                       O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (journal_fd_ < 0) {
    throw std::invalid_argument("cannot open '" + journal + "' for writing");
  }
  // Truncate only what is there to cut: on ext4 a truncation forces the
  // file's data out at close, which a fresh journal need not pay for.
  const auto cut = [this](std::size_t size) {
    struct stat st{};
    return ::fstat(journal_fd_, &st) == 0 &&
           (static_cast<std::size_t>(st.st_size) == size ||
            ::ftruncate(journal_fd_, static_cast<off_t>(size)) == 0);
  };
  std::string head;
  const bool same =
      read_prefix(journal_fd_, resumed_.size(), head) && head == resumed_;
  const bool ok = same ? cut(resumed_.size())
                       : cut(0) && write_all(journal_fd_, resumed_);
  if (!ok) {
    throw std::invalid_argument("cannot write '" + journal + "'");
  }
  resumed_.clear();
  resumed_.shrink_to_fit();
}

void CheckpointWriter::append(std::string_view frame) {
  if (journal_fd_ < 0) {
    start_journal();
  }
  if (!write_all(journal_fd_, frame)) {
    throw std::invalid_argument("cannot write '" + journal_path(path_) + "'");
  }
}

void CheckpointWriter::commit(const std::string& snapshot) {
  // The snapshot names at least the resumed prefix, so it must be on disk
  // before the first rename even when no frame came yet.
  if (journal_fd_ < 0 && !resumed_.empty()) {
    start_journal();
  }
  write_file_atomically(path_, {snapshot, "\n"});
}

}  // namespace sustainai::engine
