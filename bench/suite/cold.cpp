#include "cold.h"

#include <fcntl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>

namespace oociso::benchsuite {
namespace {

std::filesystem::path store_file(const std::filesystem::path& storage_dir,
                                 std::size_t node) {
  return storage_dir / ("node" + std::to_string(node)) / "bricks.dat";
}

/// Opens a store file read-only for an advisory call; the descriptor is
/// closed by the destructor.
class StoreFd {
 public:
  explicit StoreFd(const std::filesystem::path& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw std::system_error(errno, std::generic_category(),
                              "open " + path.string());
    }
  }
  ~StoreFd() { ::close(fd_); }
  StoreFd(const StoreFd&) = delete;
  StoreFd& operator=(const StoreFd&) = delete;

  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// Value of `key` (e.g. "read_bytes:") in a /proc key-value file; 0 when
/// the file or key is missing.
std::uint64_t proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string word;
  while (in >> word) {
    if (word == key) {
      std::uint64_t value = 0;
      in >> value;
      return value;
    }
  }
  return 0;
}

}  // namespace

void sync_store(const std::filesystem::path& storage_dir, std::size_t nodes) {
  for (std::size_t node = 0; node < nodes; ++node) {
    const std::filesystem::path path = store_file(storage_dir, node);
    const StoreFd fd(path);
    if (::fdatasync(fd.get()) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "fdatasync " + path.string());
    }
  }
}

void drop_store(const std::filesystem::path& storage_dir, std::size_t nodes) {
  for (std::size_t node = 0; node < nodes; ++node) {
    const std::filesystem::path path = store_file(storage_dir, node);
    const StoreFd fd(path);
    const int rc = ::posix_fadvise(fd.get(), 0, 0, POSIX_FADV_DONTNEED);
    if (rc != 0) {
      throw std::system_error(rc, std::generic_category(),
                              "posix_fadvise " + path.string());
    }
  }
}

std::uint64_t device_read_bytes() {
  return proc_field("/proc/self/io", "read_bytes:");
}

bool reset_peak_rss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool written = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && written;
}

std::uint64_t peak_rss_bytes() {
  return proc_field("/proc/self/status", "VmHWM:") * 1024;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string filesystem_type(const std::filesystem::path& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
  return hex.str();
}

}  // namespace oociso::benchsuite
