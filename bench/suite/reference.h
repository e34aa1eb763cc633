#pragma once
// The benchmark's input volume and the in-core meshes its outputs are
// checked against.
//
// The input is the repository benches' paper set-up (bench::BenchSetup at
// its defaults: RM-analog generator seed 42, time step 250), independent of
// the request seed, so the volume is generated once per build and cached as
// an OOCV file; later runs load it in a fraction of a second. The in-core
// reference for an isovalue — extract::extract_volume over the whole
// volume — is cached next to it, one line per isovalue: triangle count,
// an order-independent digest, and (when some check needs it) the
// canonical mesh CRC the repository's goldens use. Cache names carry the
// CRC-32 of the running binary, so a rebuilt generator or extractor never
// reads a cache an older build wrote.

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "core/volume.h"
#include "extract/mesh.h"

namespace oociso::benchsuite {

/// Order- and partition-independent summary of a triangle multiset: the
/// triangle count and the wrapping sum of a 64-bit hash of each triangle's
/// coordinates quantized to 1/4096 lattice unit (the quantum
/// canonical_mesh_crc uses). Linear time, so it can check every mesh.
struct MeshDigest {
  std::uint64_t triangles = 0;
  std::uint64_t sum = 0;
  bool operator==(const MeshDigest&) const = default;
};

[[nodiscard]] MeshDigest digest(const extract::TriangleSoup& soup);

struct Reference {
  MeshDigest mesh;
  std::optional<std::uint32_t> crc;  ///< canonical_mesh_crc, when computed
};

class Dataset {
 public:
  /// The paper set-up at base width `dims`; `cache_dir` holds the volume
  /// and reference caches (created if absent).
  Dataset(std::int32_t dims, std::filesystem::path cache_dir);

  /// The generator configuration, time step and paper isovalue sweep.
  [[nodiscard]] const bench::BenchSetup& setup() const { return setup_; }

  /// The RM-analog time-step volume: loaded from the cache, or generated
  /// (and cached) on first use. Each call returns a fresh copy the caller
  /// may release once preprocessing and reference extraction are done.
  [[nodiscard]] core::VolumeU8 volume();

  /// In-core references for `isovalues`, computing (and caching) the ones
  /// not cached yet; `with_crc` also requires the canonical CRC.
  [[nodiscard]] std::map<float, Reference> references(
      const core::VolumeU8& volume, std::span<const float> isovalues,
      bool with_crc);

  /// Wall seconds the first volume() call spent generating or loading.
  [[nodiscard]] double gen_seconds() const { return gen_seconds_; }
  [[nodiscard]] bool generated() const { return generated_; }

 private:
  bench::BenchSetup setup_;
  std::filesystem::path cache_dir_;
  std::string stem_;  ///< cache file stem: configuration + binary CRC
  double gen_seconds_ = 0.0;
  bool generated_ = false;
  bool loaded_once_ = false;
};

}  // namespace oociso::benchsuite
