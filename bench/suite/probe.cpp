#include "probe.h"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "cold.h"
#include "compositing/sort_last.h"
#include "extract/marching_cubes.h"
#include "index/hierarchy.h"
#include "index/retrieval_stream.h"
#include "metacell/metacell.h"
#include "render/camera.h"
#include "render/rasterizer.h"

namespace oociso::benchsuite {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

/// Times every read of one node disk — the probe's io layer, below any
/// codec or pool.
class TimingDevice final : public io::BlockDevice {
 public:
  TimingDevice(io::BlockDevice& inner, obs::Tracer* tracer, std::uint32_t pid,
               std::uint32_t tid)
      : io::BlockDevice(inner.block_size(), inner.readahead_blocks()),
        inner_(inner),
        tracer_(tracer),
        pid_(pid),
        tid_(tid) {}

  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  [[nodiscard]] double read_ms() const { return read_ms_; }

 protected:
  void do_read(std::uint64_t offset, std::span<std::byte> out) override {
    obs::Span span(tracer_, "io.device_read", pid_, tid_);
    span.arg("bytes", static_cast<std::uint64_t>(out.size()));
    const Clock::time_point start = Clock::now();
    inner_.read(offset, out);
    read_ms_ += ms_since(start);
  }
  void do_write(std::uint64_t, std::span<const std::byte>) override {
    throw std::logic_error("TimingDevice is read-only");
  }

 private:
  io::BlockDevice& inner_;
  obs::Tracer* tracer_;
  std::uint32_t pid_;
  std::uint32_t tid_;
  double read_ms_ = 0.0;
};

/// Plans, retrieves, decodes and triangulates one node's stripe of one
/// level into `soup`, charging every call to `layers`.
void probe_stripe(const ProbeConfig& config, std::size_t node,
                  std::int32_t level, float isovalue, std::uint32_t pid,
                  extract::TriangleSoup& soup, LayerTimes& layers) {
  const index::CompactIntervalTree& tree = config.data->trees[node];
  if (tree.record_size() == 0) return;
  obs::Tracer* const tracer = config.tracer;
  const std::uint32_t io_tid = obs::track(node, obs::Lane::kIo);
  const std::uint32_t cpu_tid = obs::track(node, obs::Lane::kCompute);

  Clock::time_point start = Clock::now();
  index::QueryPlan plan;
  {
    obs::Span span(tracer, "index.plan", pid, io_tid);
    plan = level == 0 ? tree.plan(isovalue) : tree.plan_level(isovalue, level);
  }
  layers.plan += ms_since(start);
  if (plan.scans.empty()) return;

  // Coarse levels are read through a private raw handle, as the
  // progressive engine does; level 0 through the pools when pooled.
  const bool pooled = config.pooled && level == 0;
  std::unique_ptr<io::BlockDevice> handle;
  std::unique_ptr<TimingDevice> timing;
  io::BlockDevice* device = nullptr;
  io::SharedBufferPool* cache = nullptr;
  if (pooled) {
    device = &config.cluster->disk(node);
    cache = config.cluster->cache(node);
  } else {
    if (level == 0 && config.cluster->chunk_map(node) != nullptr) {
      throw std::logic_error("probe: the raw path reads uncompressed stores");
    }
    handle = config.cluster->open_replica_view(node);
    timing = std::make_unique<TimingDevice>(*handle, tracer, pid, io_tid);
    device = timing.get();
  }
  index::BrickDirectory directory;
  if (level == 0) {
    directory = index::BrickDirectory{tree.bricks(), tree.chunk_crcs()};
    directory.chunk_map = config.cluster->chunk_map(node);
  }

  start = Clock::now();
  std::optional<index::RetrievalStream> stream;
  {
    obs::Span span(tracer, "index.schedule", pid, io_tid);
    stream.emplace(std::move(plan), tree.scalar_kind(), tree.record_size(),
                   *device, index::RetrievalOptions{}, directory, cache);
  }
  layers.schedule += ms_since(start);
  layers.bridged_gap_bytes += stream->schedule().bridged_gap_bytes;

  const metacell::MetacellGeometry geometry =
      level == 0 ? config.data->geometry
                 : index::hierarchy_level_geometry(config.data->geometry, level);
  metacell::DecodedMetacell cell;
  while (true) {
    const double wall_before = stream->io_wall_seconds() * 1e3;
    const double decode_before = stream->decode_cpu_seconds() * 1e3;
    const double device_before = timing ? timing->read_ms() : 0.0;
    start = Clock::now();
    std::optional<index::RecordBatch> batch;
    {
      obs::Span span(tracer, "index.next", pid, io_tid);
      batch = stream->next();
    }
    const double next_ms = ms_since(start);
    // io_wall covers the device read plus any decode on the fetch path;
    // the rest of next() is CRC verification and record compaction.
    const double wall = stream->io_wall_seconds() * 1e3 - wall_before;
    const double decode = stream->decode_cpu_seconds() * 1e3 - decode_before;
    layers.read += timing ? timing->read_ms() - device_before : wall - decode;
    layers.decode += decode;
    layers.verify += next_ms - wall;
    if (!batch.has_value()) break;

    const std::uint64_t batch_us = tracer != nullptr ? tracer->now_us() : 0;
    double decode_ms = 0.0;
    double extract_ms = 0.0;
    for (std::size_t r = 0; r < batch->record_count; ++r) {
      const Clock::time_point t0 = Clock::now();
      metacell::decode_metacell(batch->record(r), tree.scalar_kind(), geometry,
                                cell);
      const Clock::time_point t1 = Clock::now();
      extract::extract_metacell(cell, isovalue, soup);
      const Clock::time_point t2 = Clock::now();
      decode_ms += ms_between(t0, t1);
      extract_ms += ms_between(t1, t2);
    }
    layers.metacell += decode_ms;
    layers.extract += extract_ms;
    if (tracer != nullptr) {
      const auto decode_us = static_cast<std::uint64_t>(decode_ms * 1e3);
      const std::string args =
          obs::ArgsBuilder()
              .add("records", static_cast<std::uint64_t>(batch->record_count))
              .add("aggregate", std::string_view("per batch"))
              .str();
      tracer->complete("metacell.decode", pid, cpu_tid, batch_us, decode_us,
                       args);
      tracer->complete("extract.metacell", pid, cpu_tid, batch_us + decode_us,
                       static_cast<std::uint64_t>(extract_ms * 1e3), args);
    }
  }
}

ProbeQuery probe_query(const ProbeConfig& config, float isovalue,
                       std::uint32_t pid) {
  obs::Tracer* const tracer = config.tracer;
  if (tracer != nullptr) {
    tracer->name_process(pid, "probe iso=" + std::to_string(isovalue));
  }
  const std::size_t p = config.cluster->size();
  if (config.cold) {
    config.cluster->drop_caches();
    drop_store(config.storage_dir, p);
  }

  ProbeQuery query;
  query.isovalue = isovalue;
  const auto coarsest =
      config.progressive
          ? static_cast<std::int32_t>(config.data->hierarchy_levels())
          : 0;
  std::vector<extract::TriangleSoup> soups(p);
  for (std::int32_t level = coarsest; level >= 0; --level) {
    for (std::size_t node = 0; node < p; ++node) {
      extract::TriangleSoup coarse;
      probe_stripe(config, node, level, isovalue, pid,
                   level == 0 ? soups[node] : coarse, query.layers);
    }
  }

  const core::GridDims& dims = config.data->geometry.volume_dims();
  const render::Camera camera = render::Camera::framing_volume(
      static_cast<float>(dims.nx), static_cast<float>(dims.ny),
      static_cast<float>(dims.nz), kImageSize, kImageSize);
  std::vector<render::Framebuffer> frames;
  frames.reserve(p);
  for (std::size_t node = 0; node < p; ++node) {
    frames.emplace_back(kImageSize, kImageSize);
    obs::Span span(tracer, "render.draw", pid,
                   obs::track(node, obs::Lane::kCompute));
    const Clock::time_point start = Clock::now();
    render::Rasterizer rasterizer;
    const render::RasterStats stats =
        rasterizer.draw(soups[node], camera, frames[node]);
    query.layers.raster += ms_since(start);
    query.layers.fragments_written += stats.fragments_written;
  }

  const std::uint32_t control = obs::track(0, obs::Lane::kControl);
  {
    obs::Span span(tracer, "compositing.binary_swap", pid, control);
    const Clock::time_point start = Clock::now();
    static_cast<void>(compositing::binary_swap(frames));
    query.layers.merge += ms_since(start);
  }
  {
    obs::Span span(tracer, "pipeline.crc", pid, control);
    const Clock::time_point start = Clock::now();
    query.crc = extract::canonical_mesh_crc(
        std::span<const extract::TriangleSoup>(soups));
    query.layers.crc += ms_since(start);
  }
  for (const extract::TriangleSoup& soup : soups) query.triangles += soup.size();
  return query;
}

}  // namespace

std::vector<ProbeQuery> run_probe(const ProbeConfig& config,
                                  std::span<const float> isovalues) {
  std::vector<ProbeQuery> queries;
  std::uint32_t pid = config.first_pid;
  for (const float isovalue : isovalues) {
    queries.push_back(probe_query(config, isovalue, pid++));
  }
  return queries;
}

}  // namespace oociso::benchsuite
