#include "runner/checked_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace qperc::runner {
namespace {

std::string header_prefix(std::string_view magic) {
  return std::string(magic) + " model" + std::to_string(kModelVersion);
}

std::string footer_for(std::uint64_t checksum) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(checksum));
  return std::string("checksum ") + hex + '\n';
}

[[noreturn]] void fail(const std::string& what, const std::string& path, int error) {
  throw std::runtime_error("cannot " + what + " " + path + ": " + std::strerror(error));
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t written = ::write(fd, bytes.data(), bytes.size());
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

/// Makes a completed rename durable. EINVAL means the filesystem cannot
/// sync directories, which leaves nothing more to do.
void sync_parent_directory(const std::string& path) {
  const auto slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail("open directory of", path, errno);
  const int synced = ::fsync(fd);
  const int error = errno;
  ::close(fd);
  if (synced != 0 && error != EINVAL) fail("sync directory of", path, error);
}

}  // namespace

void write_checked_file(const std::string& path, std::string_view magic,
                        std::string_view fields, std::string_view payload) {
  if (!payload.empty() && payload.back() != '\n') {
    throw std::invalid_argument("checked file payload must end in a newline: " + path);
  }
  std::string header = header_prefix(magic);
  if (!fields.empty()) {
    header += ' ';
    header += fields;
  }
  header += '\n';
  const std::string footer = footer_for(fnv1a(payload, fnv1a(header)));

  const std::string temp_path = path + ".tmp";
  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("create", temp_path, errno);
  const auto abandon = [&](const char* what, int error) {
    ::close(fd);
    ::unlink(temp_path.c_str());
    fail(what, temp_path, error);
  };
  if (!write_all(fd, header) || !write_all(fd, payload) || !write_all(fd, footer)) {
    abandon("write", errno);
  }
  if (::fsync(fd) != 0) abandon("sync", errno);
  if (::close(fd) != 0) {
    const int error = errno;
    ::unlink(temp_path.c_str());
    fail("close", temp_path, error);
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    const int error = errno;
    ::unlink(temp_path.c_str());
    fail("rename into place", path, error);
  }
  sync_parent_directory(path);
}

std::optional<CheckedFile> read_checked_file(const std::string& path,
                                             std::string_view magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  std::string bytes = std::move(buffer).str();

  // Header line, payload lines, then the footer as the very last line.
  const auto header_end = bytes.find('\n');
  if (header_end == std::string::npos || bytes.back() != '\n' ||
      header_end + 1 == bytes.size()) {
    return std::nullopt;
  }
  const std::size_t footer_start = bytes.rfind('\n', bytes.size() - 2) + 1;
  const std::string_view body(bytes.data(), footer_start);
  if (std::string_view(bytes).substr(footer_start) != footer_for(fnv1a(body))) {
    return std::nullopt;
  }

  const std::string prefix = header_prefix(magic);
  const std::string_view header(bytes.data(), header_end);
  if (header.substr(0, prefix.size()) != prefix) return std::nullopt;
  CheckedFile file;
  if (header.size() > prefix.size()) {
    if (header[prefix.size()] != ' ') return std::nullopt;
    file.fields = header.substr(prefix.size() + 1);
  }
  bytes.resize(footer_start);
  bytes.erase(0, header_end + 1);
  file.payload = std::move(bytes);
  return file;
}

}  // namespace qperc::runner
