#include "core/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>

namespace sustainai {

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void write_file_atomically(const std::string& path,
                           std::initializer_list<std::string_view> parts) {
  struct stat st{};
  const bool in_place = ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  const std::string target = in_place ? path : path + ".tmp";
  const int fd =
      ::open(target.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::invalid_argument("cannot open '" + path + "' for writing");
  }
  bool ok = true;
  for (const std::string_view part : parts) {
    ok = ok && write_all(fd, part);
  }
  if (::close(fd) != 0 || !ok ||
      (!in_place && std::rename(target.c_str(), path.c_str()) != 0)) {
    throw std::invalid_argument("cannot write '" + path + "'");
  }
}

}  // namespace sustainai
