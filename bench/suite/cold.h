#pragma once
// Cold-start control and the kernel counters that prove it.
//
// A "cold" query must pull its bricks from the block device, not from the
// page cache the preprocessing just filled. The benchmark flushes each node
// store once (so no dirty page survives a drop), then before every cold
// request asks the kernel to drop the store's cached pages with
// posix_fadvise(POSIX_FADV_DONTNEED), which needs no privileges. The
// process-wide /proc/self/io `read_bytes` counter, sampled around each
// request, is the proof: a cold request that read 0 device bytes is not
// cold and is counted as failed.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>

namespace oociso::benchsuite {

/// fdatasync()s every `<storage_dir>/node<i>/bricks.dat` of a `nodes`-node
/// store; throws std::system_error when a store file cannot be flushed.
void sync_store(const std::filesystem::path& storage_dir, std::size_t nodes);

/// Drops every node's bricks.dat from the page cache; throws
/// std::system_error when a store file cannot be opened or advised.
void drop_store(const std::filesystem::path& storage_dir, std::size_t nodes);

/// Bytes this process has caused to be read from block devices
/// (/proc/self/io `read_bytes`); 0 when the counter is unavailable.
[[nodiscard]] std::uint64_t device_read_bytes();

/// Resets the peak resident set size (VmHWM) to the current RSS by writing
/// 5 to /proc/self/clear_refs; false when the kernel refuses.
bool reset_peak_rss();

/// Peak resident set size (VmHWM) in bytes; 0 when unavailable.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Host facts recorded with every run.
[[nodiscard]] std::string cpu_model();
[[nodiscard]] std::string filesystem_type(const std::filesystem::path& path);

}  // namespace oociso::benchsuite
