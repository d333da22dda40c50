// Whole-file writes that a kill cannot tear.
//
// Every artifact sustainai writes (checkpoint snapshots, bundle files, CSV
// exports, the CLI's --trace/--metrics files) goes through
// write_file_atomically, so a run killed at any moment leaves each file
// either as it was or complete (DESIGN.md §11).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace sustainai {

// Writes all of `data` to the open file descriptor `fd`, retrying short and
// interrupted writes; false on an error.
[[nodiscard]] bool write_all(int fd, std::string_view data);

// Writes the concatenation of `parts` to `<path>.tmp`, then renames it over
// `path`, so `path` is never seen half written. A path that exists but is
// not a regular file (a device, a pipe) is written in place: renaming over
// it would replace the node itself. Throws std::invalid_argument
// "cannot open '<path>' for writing" when the file cannot be created and
// "cannot write '<path>'" when a write, the close or the rename fails.
void write_file_atomically(const std::string& path,
                           std::initializer_list<std::string_view> parts);

}  // namespace sustainai
