#pragma once
// Outside-in per-layer probe.
//
// The engines report totals per node, not per layer, and the spans inside
// the program do not yet split device read, CRC verify, record decode and
// triangulation. The probe therefore re-drives a query through each
// module's public functions, one node after another on the calling
// thread, and times every call from the benchmark's own code:
//
//   CompactIntervalTree::plan / plan_level     index.plan
//   RetrievalStream construction               index.schedule (schedule_plan)
//   RetrievalStream::next                      index.next, split into
//     device reads (timing decorator)            io.read
//     chunk decode inside the fetch              codec.decode
//     the rest: CRC verify, compaction           index.verify (self time)
//   metacell::decode_metacell                  metacell.decode
//   extract::extract_metacell                  extract.metacell
//   render::Rasterizer::draw                   render.draw
//   compositing::binary_swap                   compositing.binary_swap
//   extract::canonical_mesh_crc                pipeline.crc
//
// Each call gets a span (pid = the probe request's id) in the run's
// tracer; decode and extract run once per record, so their spans are one
// aggregate event per batch. Summed over nodes, the layer times are the
// single-threaded cost of the query — the baseline the parallel engine's
// latency is compared against.

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "parallel/cluster.h"
#include "pipeline/preprocess.h"

namespace oociso::benchsuite {

/// Framebuffer side of every rendering query the benchmark sends and of
/// the probe's render and composite steps.
inline constexpr std::int32_t kImageSize = 512;

struct ProbeConfig {
  /// Cluster and index the workload runs against (both must outlive the
  /// probe).
  parallel::Cluster* cluster = nullptr;
  const pipeline::PreprocessResult* data = nullptr;
  std::filesystem::path storage_dir;
  /// Read level 0 through the cluster's shared pools (serve workloads);
  /// otherwise through a private handle of each node's raw disk.
  bool pooled = false;
  /// Drop the pools and the store's page cache before each isovalue.
  bool cold = false;
  /// Probe every stored hierarchy level, coarsest first, like a
  /// progressive query; otherwise level 0 only.
  bool progressive = false;
  obs::Tracer* tracer = nullptr;
  std::uint32_t first_pid = 0;
};

/// Milliseconds per layer for one probed query, summed over nodes and
/// levels, plus the counts measured at the same call sites.
struct LayerTimes {
  double plan = 0.0;
  double schedule = 0.0;
  double read = 0.0;
  double decode = 0.0;
  double verify = 0.0;
  double metacell = 0.0;
  double extract = 0.0;
  double raster = 0.0;
  double merge = 0.0;
  double crc = 0.0;
  std::uint64_t bridged_gap_bytes = 0;
  std::uint64_t fragments_written = 0;
};

struct ProbeQuery {
  float isovalue = 0.0f;
  LayerTimes layers;
  std::uint32_t crc = 0;        ///< canonical CRC of the level-0 mesh
  std::uint64_t triangles = 0;  ///< level-0 triangles
};

/// Probes each isovalue once, in order.
[[nodiscard]] std::vector<ProbeQuery> run_probe(const ProbeConfig& config,
                                                std::span<const float> isovalues);

}  // namespace oociso::benchsuite
