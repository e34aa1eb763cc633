#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "cold.h"
#include "metacell/source.h"
#include "pipeline/bundle.h"
#include "pipeline/preprocess.h"
#include "pipeline/progressive.h"
#include "pipeline/query_engine.h"
#include "probe.h"
#include "serve/query_server.h"
#include "util/rng.h"

namespace oociso::benchsuite {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNodes = 4;
constexpr std::int32_t kSamplesPerSide = 9;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kFailed = std::numeric_limits<double>::infinity();

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ---- request mixes -----------------------------------------------------

/// `count` integer isovalues evenly spaced over [lo, hi].
std::vector<float> spaced(int lo, int hi, int count) {
  std::vector<float> values;
  for (int i = 0; i < count; ++i) {
    values.push_back(static_cast<float>(
        std::lround(lo + static_cast<double>(hi - lo) * i / (count - 1))));
  }
  return values;
}

/// `n` values spread evenly over `values` (centres of n equal slices).
std::vector<float> spread(const std::vector<float>& values, std::size_t n) {
  std::vector<float> out;
  n = std::min(n, values.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(values[(2 * i + 1) * values.size() / (2 * n)]);
  }
  return out;
}

void shuffle(std::vector<float>& values, util::Xoshiro256& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.bounded(i)]);
  }
}

/// `values` in Zipf rank order. The order is fixed — not drawn from the
/// run seed — so every seed offers the same mix of cheap and expensive
/// isovalues; the seed orders the requests.
std::vector<float> zipf_ranks(std::vector<float> values) {
  util::Xoshiro256 rng(0x5A1FULL);
  shuffle(values, rng);
  return values;
}

/// One Zipf(s) round of `size` requests over `ranked` values: rank k
/// appears round(size * k^-s / H) times (largest remainder, so the round
/// has exactly `size` requests).
std::vector<float> zipf_round(const std::vector<float>& ranked, double s,
                              std::size_t size) {
  std::vector<double> weights;
  for (std::size_t k = 1; k <= ranked.size(); ++k) {
    weights.push_back(std::pow(static_cast<double>(k), -s));
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::size_t> counts;
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    const double exact = static_cast<double>(size) * weights[k] / total;
    counts.push_back(static_cast<std::size_t>(exact));
    assigned += counts.back();
    remainders.emplace_back(exact - std::floor(exact), k);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < size; ++i, ++assigned) {
    ++counts[remainders[i].second];
  }
  std::vector<float> round;
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    round.insert(round.end(), counts[k], ranked[k]);
  }
  return round;
}

/// The request sequence of one phase: unit u is the workload's unit
/// multiset shuffled by (seed, stream, u), generated on first use.
class RequestStream {
 public:
  RequestStream(std::vector<float> unit, std::uint64_t seed,
                std::uint64_t stream)
      : unit_(std::move(unit)), seed_(seed), stream_(stream) {}

  [[nodiscard]] std::uint64_t unit_size() const { return unit_.size(); }

  [[nodiscard]] float at(std::uint64_t index) {
    const std::uint64_t u = index / unit_.size();
    const std::lock_guard<std::mutex> lock(mutex_);
    while (units_.size() <= u) {
      std::vector<float> next = unit_;
      util::Xoshiro256 rng(seed_ ^ (stream_ << 48), units_.size());
      shuffle(next, rng);
      units_.push_back(std::move(next));
    }
    return units_[u][index % unit_.size()];
  }

 private:
  const std::vector<float> unit_;
  const std::uint64_t seed_;
  const std::uint64_t stream_;
  std::mutex mutex_;  ///< guards units_
  std::vector<std::vector<float>> units_;
};

// ---- workload specs ----------------------------------------------------

struct Spec {
  Workload kind = Workload::kSweepCold;
  pipeline::PreprocessConfig store;
  bool served = false;       ///< through a QueryServer (else QueryEngine)
  bool cold = false;         ///< drop pools + page cache before each request
  bool progressive = false;  ///< query_progressive requests
  bool render = false;
  std::size_t clients = 1;
  std::size_t cache_frames = 4096;
  std::vector<float> values;  ///< distinct isovalues the requests draw from
  std::vector<float> unit;    ///< one unit's request multiset (unshuffled)
  std::vector<float> probe_values;
};

/// `sweep` is the paper's isovalue sweep (Tables 2-5).
Spec make_spec(Workload kind, const RunConfig& config,
               const std::vector<float>& sweep) {
  Spec spec;
  spec.kind = kind;
  spec.store.samples_per_side = kSamplesPerSide;
  switch (kind) {
    case Workload::kSweepCold:
      spec.cold = true;
      spec.render = true;
      spec.values = sweep;
      spec.unit = spec.values;
      spec.probe_values = spread(spec.values, config.probe_queries);
      break;
    case Workload::kServeHot: {
      spec.served = true;
      spec.clients = config.clients;
      spec.cache_frames = 8192;  // > the whole stripe: every block a hit
      spec.values = spaced(20, 200, 32);
      const std::vector<float> ranked = zipf_ranks(spec.values);
      spec.unit = zipf_round(ranked, 1.1, 128);
      spec.probe_values.assign(
          ranked.begin(),
          ranked.begin() + static_cast<std::ptrdiff_t>(
                               std::min(config.probe_queries, ranked.size())));
      break;
    }
    case Workload::kServeChurn:
      spec.store.compression = codec::Codec::kLz;
      spec.store.placement.replication = 2;
      spec.served = true;
      spec.clients = config.clients;
      spec.cache_frames = 512;  // about a quarter of a node's stripe
      spec.values = spaced(10, 230, 64);
      spec.unit = spec.values;
      spec.probe_values = spread(spec.values, config.probe_queries);
      break;
    case Workload::kProgressive:
      spec.store.levels = 3;
      spec.served = true;
      spec.cold = true;
      spec.progressive = true;
      spec.render = true;
      spec.values = sweep;
      spec.unit = spec.values;
      spec.probe_values = spread(spec.values, config.probe_queries);
      break;
  }
  return spec;
}

// ---- store -------------------------------------------------------------

/// One preprocessed node store; the directory is removed on destruction.
struct Store {
  std::filesystem::path dir;
  std::unique_ptr<parallel::Cluster> cluster;
  pipeline::PreprocessResult prep;
  std::vector<double> setup_seconds;       ///< preprocess + bundle save
  std::vector<double> preprocess_seconds;  ///< preprocess alone

  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  ~Store() { reset(); }

  void reset() {
    cluster.reset();
    if (!dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

/// Preprocesses `volume` `reps` times onto fresh file-backed clusters
/// (setup_s is their median) and keeps the last store, flushed to disk.
std::unique_ptr<Store> build_store(const Spec& spec, const RunConfig& config,
                                   const core::VolumeU8& volume) {
  const metacell::VolumeMetacellSource<std::uint8_t> source(volume,
                                                            kSamplesPerSide);
  auto store = std::make_unique<Store>();
  const int reps = std::max(config.setup_reps, 1);
  for (int rep = 0; rep < reps; ++rep) {
    store->reset();
    store->dir = config.work_dir / "stores" /
                 (std::string(workload_name(spec.kind)) + "-" +
                  std::to_string(::getpid()) + "-" + std::to_string(rep));
    std::filesystem::create_directories(store->dir);
    parallel::ClusterConfig cluster_config;
    cluster_config.node_count = kNodes;
    cluster_config.storage_dir = store->dir;
    store->cluster = std::make_unique<parallel::Cluster>(cluster_config);

    const Clock::time_point start = Clock::now();
    store->prep = pipeline::preprocess(source, *store->cluster, spec.store);
    pipeline::save_bundle(store->prep, store->dir);
    store->setup_seconds.push_back(ms_since(start) / 1e3);
    store->preprocess_seconds.push_back(store->prep.elapsed_seconds);
  }
  // Flush once so later page-cache drops find no dirty page and the
  // measured phase shares the disk with no writeback.
  for (std::size_t node = 0; node < kNodes; ++node) {
    store->cluster->disk(node).flush();
  }
  sync_store(store->dir, kNodes);
  return store;
}

// ---- per-request accounting -----------------------------------------------

/// Per-node (triangles, active metacells) of a verified flat query.
using NodeCounts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

NodeCounts node_counts(const pipeline::QueryReport& report) {
  NodeCounts counts;
  for (const pipeline::NodeReport& node : report.nodes) {
    counts.emplace_back(node.triangles, node.active_metacells);
  }
  return counts;
}

/// Engine-reported layer counters ("R" metrics), summed over requests.
struct Totals {
  double queries = 0;
  double read_ops = 0;
  double bytes_read = 0;
  double seeks = 0;
  double active_metacells = 0;
  double records_fetched = 0;
  double hit_blocks = 0;
  double miss_blocks = 0;
  double wait_blocks = 0;
  double rerouted = 0;
  double hedged = 0;
  double decode_s = 0;
  double classify_s = 0;
  double triangulation_s = 0;
  double busy_s = 0;
  double cells = 0;
  double active_cells = 0;
  double triangles = 0;
  double composite_bytes = 0;
  double imbalance = 0;
  // progressive requests only
  double coarse_read_ops = 0;
  double coarse_ms = 0;       ///< run start -> last coarse level done
  double progressive_ms = 0;  ///< run start -> level 0 done
  std::map<std::int32_t, double> level_ms;  ///< per level, its own time

  void add(const pipeline::QueryReport& report) {
    ++queries;
    double busiest = 0.0;
    double busy_total = 0.0;
    for (const pipeline::NodeReport& node : report.nodes) {
      read_ops += static_cast<double>(node.io.read_ops);
      bytes_read += static_cast<double>(node.io.bytes_read);
      seeks += static_cast<double>(node.io.seeks);
      active_metacells += static_cast<double>(node.active_metacells);
      records_fetched += static_cast<double>(node.records_fetched);
      hit_blocks += static_cast<double>(node.cache.hit_blocks);
      miss_blocks += static_cast<double>(node.cache.miss_blocks);
      wait_blocks += static_cast<double>(node.cache.wait_blocks);
      rerouted += static_cast<double>(node.faults.retrieval.rerouted_reads);
      hedged += static_cast<double>(node.faults.retrieval.hedged_reads);
      decode_s += node.decode_cpu_seconds;
      classify_s += node.classify_seconds;
      triangulation_s += node.triangulation_seconds;
      cells += static_cast<double>(node.cells_classified);
      active_cells += static_cast<double>(node.active_cells);
      triangles += static_cast<double>(node.triangles);
      const double busy = node.io_wall_seconds + node.triangulation_seconds +
                          node.rendering_seconds;
      busy_s += busy;
      busy_total += busy;
      busiest = std::max(busiest, busy);
    }
    composite_bytes += static_cast<double>(report.composite_traffic.bytes_total);
    if (busy_total > 0.0) {
      imbalance +=
          busiest / (busy_total / static_cast<double>(report.nodes.size()));
    }
  }

  void add(const pipeline::ProgressiveReport& report) {
    if (report.full.has_value()) add(*report.full);
    coarse_read_ops += static_cast<double>(report.coarse_read_ops());
    double previous = 0.0;
    for (const pipeline::LevelReport& level : report.levels) {
      level_ms[level.level] += level.elapsed_ms - previous;
      previous = level.elapsed_ms;
    }
    if (report.levels.size() >= 2) {
      coarse_ms += report.levels[report.levels.size() - 2].elapsed_ms;
    }
    if (!report.levels.empty()) progressive_ms += report.levels.back().elapsed_ms;
  }
};

struct Sample {
  float isovalue = 0.0f;
  double latency_ms = kFailed;
  double first_surface_ms = kFailed;
  std::uint64_t triangles = 0;
  bool ok = false;
};

struct Outcome {
  Sample sample;
  std::string problem;  ///< empty when the request passed every check
};

/// Engine-reported counters of a phase's requests, shared by its clients.
struct SharedTotals {
  std::mutex mutex;  ///< guards totals
  Totals totals;

  template <typename Report>
  void add(const Report& report) {
    const std::lock_guard<std::mutex> lock(mutex);
    totals.add(report);
  }
};

/// Expectations a timed request is checked against.
struct Checks {
  const std::map<float, Reference>* references = nullptr;
  std::map<float, NodeCounts> counts;  ///< from the verification pass
};

// ---- execution -----------------------------------------------------------

/// Executes one workload's requests: QueryEngine::run for sweep-cold, a
/// QueryServer for the others. `tracer` (null = off) receives the
/// program's own spans.
class Runner {
 public:
  Runner(const Spec& spec, Store& store, obs::Tracer* tracer,
         std::uint32_t first_pid)
      : spec_(spec), store_(store), tracer_(tracer), next_pid_(first_pid) {
    engine_options_.render = spec.render;
    engine_options_.image_width = kImageSize;
    engine_options_.image_height = kImageSize;
    engine_options_.tracer = tracer;
    if (spec.served) {
      serve::ServeOptions options;
      options.max_concurrent_queries = spec.clients;
      options.cache_capacity_blocks = spec.cache_frames;
      options.query.render = spec.render;
      options.query.image_width = kImageSize;
      options.query.image_height = kImageSize;
      options.query.keep_triangles = !spec.progressive;
      options.tracer = tracer;
      options.first_query_id = first_pid;
      server_ = std::make_unique<serve::QueryServer>(*store.cluster,
                                                     store.prep, options);
    }
  }

  /// Reports of one untimed query per isovalue with the mesh kept (render
  /// off); a server takes `batch` at a time, so at most `batch` meshes are
  /// alive.
  template <typename Visit>
  void verification(const std::vector<float>& isovalues, std::size_t batch,
                    Visit&& visit) {
    if (server_ == nullptr) {
      pipeline::QueryOptions options = engine_options_;
      options.render = false;
      options.keep_triangles = true;
      options.tracer = nullptr;
      pipeline::QueryEngine engine(*store_.cluster, store_.prep);
      for (const float isovalue : isovalues) {
        visit(isovalue, engine.run(isovalue, options));
      }
      return;
    }
    for (std::size_t begin = 0; begin < isovalues.size(); begin += batch) {
      const std::size_t end = std::min(isovalues.size(), begin + batch);
      const std::span<const float> part(isovalues.data() + begin, end - begin);
      std::vector<pipeline::QueryReport> reports = server_->serve(part);
      for (std::size_t i = 0; i < reports.size(); ++i) visit(part[i], reports[i]);
    }
  }

  /// One timed request, checked against `checks`; its report's counters
  /// go to `totals`.
  Outcome request(float isovalue, const Checks& checks, SharedTotals& totals) {
    Outcome out;
    out.sample.isovalue = isovalue;
    std::uint64_t device_before = 0;
    if (spec_.cold) {
      if (server_ != nullptr) server_->drop_caches();
      drop_store(store_.dir, kNodes);
      device_before = device_read_bytes();
    }
    const Clock::time_point start = Clock::now();
    try {
      if (spec_.progressive) {
        const pipeline::ProgressiveReport report =
            server_->query_progressive(isovalue);
        const double latency = ms_since(start);
        totals.add(report);
        out.sample.triangles = report.total_triangles();
        const Reference& ref = checks.references->at(isovalue);
        if (report.finest_level_completed != 0 || !report.mesh_crc.has_value() ||
            *report.mesh_crc != ref.crc.value_or(0) ||
            report.total_triangles() != ref.mesh.triangles) {
          out.problem = "progressive mesh differs from the in-core reference";
        } else {
          out.sample.latency_ms = latency;
          // The report times levels from the engine's start; the admission
          // wait before it is part of the client's first-surface latency.
          out.sample.first_surface_ms = latency -
                                        report.levels.back().elapsed_ms +
                                        report.levels.front().elapsed_ms;
        }
      } else {
        pipeline::QueryReport report;
        if (server_ != nullptr) {
          report = server_->query(isovalue);
        } else {
          pipeline::QueryOptions options = engine_options_;
          options.query_id = next_pid_.fetch_add(1);
          if (tracer_ != nullptr) {
            tracer_->name_process(options.query_id,
                                  "query iso=" + std::to_string(isovalue));
          }
          pipeline::QueryEngine engine(*store_.cluster, store_.prep);
          report = engine.run(isovalue, options);
        }
        const double latency = ms_since(start);
        totals.add(report);
        out.sample.triangles = report.total_triangles();
        if (node_counts(report) != checks.counts.at(isovalue)) {
          out.problem = "per-node counts differ from the verification pass";
        } else {
          out.sample.latency_ms = latency;
          out.sample.first_surface_ms = latency;
        }
      }
    } catch (const std::exception& error) {
      out.problem = error.what();
    }
    if (spec_.cold && out.problem.empty() &&
        device_read_bytes() == device_before) {
      out.problem = "cold request read 0 device bytes";
    }
    out.sample.ok = out.problem.empty();
    if (!out.sample.ok) {
      out.sample.latency_ms = kFailed;
      out.sample.first_surface_ms = kFailed;
      out.problem = "iso " + std::to_string(isovalue) + ": " + out.problem;
    }
    return out;
  }

  /// Wall milliseconds of one solo flat query (cold when the workload is),
  /// through the same path the workload's flat queries take.
  double solo_flat_ms(float isovalue) {
    if (spec_.cold) {
      if (server_ != nullptr) server_->drop_caches();
      drop_store(store_.dir, kNodes);
    }
    const Clock::time_point start = Clock::now();
    if (server_ != nullptr) {
      static_cast<void>(server_->query(isovalue));
    } else {
      pipeline::QueryEngine engine(*store_.cluster, store_.prep);
      pipeline::QueryOptions options = engine_options_;
      options.tracer = nullptr;
      static_cast<void>(engine.run(isovalue, options));
    }
    return ms_since(start);
  }

  [[nodiscard]] std::uint64_t cache_evictions() const {
    return server_ != nullptr ? server_->cache_counters().evictions : 0;
  }
  [[nodiscard]] std::size_t peak_in_flight() const {
    return server_ != nullptr ? server_->peak_in_flight() : 1;
  }

 private:
  const Spec& spec_;
  Store& store_;
  obs::Tracer* tracer_;
  pipeline::QueryOptions engine_options_;
  std::unique_ptr<serve::QueryServer> server_;
  std::atomic<std::uint32_t> next_pid_;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<std::string> problems;
  Totals totals;
  double wall_seconds = 0.0;
  std::uint64_t device_bytes = 0;
  std::uint64_t peak_rss = 0;
  std::uint64_t cache_evictions = 0;  ///< pool evictions during the phase
  std::size_t peak_in_flight = 0;

  [[nodiscard]] std::uint64_t ok_count() const {
    return static_cast<std::uint64_t>(std::count_if(
        samples.begin(), samples.end(), [](const Sample& s) { return s.ok; }));
  }
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    for (const Sample& s : samples) out.push_back(s.latency_ms);
    return out;
  }
};

/// Closed-loop measured phase: `clients` threads each send the stream's
/// next request as soon as their previous one returns. Once `seconds` have
/// passed, clients finish the current unit and stop.
Phase run_phase(Runner& runner, RequestStream& stream, std::size_t clients,
                double seconds, const Checks& checks) {
  Phase phase;
  const std::uint64_t evictions_before = runner.cache_evictions();
  // Return the freed set-up and verification memory to the kernel, so the
  // peak below is the measured phase's own.
  ::malloc_trim(0);
  reset_peak_rss();
  const std::uint64_t device_before = device_read_bytes();
  const std::uint64_t unit = stream.unit_size();

  std::mutex mutex;  // guards phase.samples, phase.problems
  SharedTotals totals;
  std::exception_ptr error;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> limit{std::numeric_limits<std::uint64_t>::max()};
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto client = [&] {
    try {
      while (true) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= limit.load()) return;
        if (i >= unit && Clock::now() >= deadline) {
          // Past the deadline: the run ends at the end of this unit.
          const std::uint64_t end = (i + unit - 1) / unit * unit;
          std::uint64_t current = limit.load();
          while (end < current && !limit.compare_exchange_weak(current, end)) {
          }
          if (i >= limit.load()) return;
        }
        const Outcome outcome = runner.request(stream.at(i), checks, totals);
        const std::lock_guard<std::mutex> lock(mutex);
        phase.samples.push_back(outcome.sample);
        if (!outcome.problem.empty()) phase.problems.push_back(outcome.problem);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
      limit.store(0);
    }
  };
  std::vector<std::thread> threads;
  try {
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client);
  } catch (...) {
    limit.store(0);
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);

  phase.wall_seconds = ms_since(start) / 1e3;
  phase.totals = std::move(totals.totals);
  phase.device_bytes = device_read_bytes() - device_before;
  phase.peak_rss = peak_rss_bytes();
  phase.cache_evictions = runner.cache_evictions() - evictions_before;
  phase.peak_in_flight = runner.peak_in_flight();
  return phase;
}

/// Verification pass: one untimed query per distinct isovalue, mesh digest
/// against the in-core reference; records the per-node counts every timed
/// request must reproduce. Through a server it is also the warm-up: it
/// fills serve-hot's pools with the whole stripe and brings serve-churn's
/// to steady-state occupancy. Progressive requests check their own CRC.
void verify(Runner& runner, const Spec& spec, Checks& checks,
            WorkloadResult& result) {
  if (spec.progressive) return;
  runner.verification(
      spec.values, std::max<std::size_t>(spec.clients, 1),
      [&](float isovalue, const pipeline::QueryReport& report) {
        ++result.attempted;
        const MeshDigest got = report.triangles_out.has_value()
                                   ? digest(*report.triangles_out)
                                   : MeshDigest{};
        if (got != checks.references->at(isovalue).mesh) {
          ++result.failed;
          result.correct = false;
          result.problems.push_back("iso " + std::to_string(isovalue) +
                                    ": mesh differs from the in-core reference");
        }
        checks.counts[isovalue] = node_counts(report);
      });
}

void record_phase(const Phase& phase, WorkloadResult& result) {
  result.attempted += phase.samples.size();
  result.failed += phase.samples.size() - phase.ok_count();
  if (!phase.problems.empty()) result.correct = false;
  for (const std::string& problem : phase.problems) {
    if (result.problems.size() < 32) result.problems.push_back(problem);
  }
}

/// Mean untimed-phase latency of each isovalue that has samples.
std::map<float, double> mean_latency(const Phase& phase) {
  std::map<float, std::pair<double, double>> sums;
  for (const Sample& s : phase.samples) {
    if (!s.ok) continue;
    sums[s.isovalue].first += s.latency_ms;
    sums[s.isovalue].second += 1.0;
  }
  std::map<float, double> out;
  for (const auto& [isovalue, sum] : sums) out[isovalue] = sum.first / sum.second;
  return out;
}

void end_to_end_metrics(const Phase& phase, const Store& store,
                        Metrics& metrics) {
  const auto n = static_cast<std::uint64_t>(phase.samples.size());
  std::vector<double> first;
  double triangles = 0.0;
  for (const Sample& s : phase.samples) {
    first.push_back(s.first_surface_ms);
    if (s.ok) triangles += static_cast<double>(s.triangles);
  }
  const std::vector<double> latencies = phase.latencies();
  metrics.set("setup_s", median(store.setup_seconds), "s",
              store.setup_seconds.size());
  metrics.set("latency_p50_ms", percentile(latencies, 0.5), "ms", n);
  metrics.set("latency_p90_ms", percentile(latencies, 0.9), "ms", n);
  metrics.set("throughput_qps",
              ratio(static_cast<double>(phase.ok_count()), phase.wall_seconds),
              "1/s", n);
  metrics.set("mtri_per_s", ratio(triangles / 1e6, phase.wall_seconds),
              "Mtri/s", n);
  metrics.set("first_surface_p50_ms", percentile(first, 0.5), "ms", n);
  metrics.set("peak_rss_mib", static_cast<double>(phase.peak_rss) / kMiB, "MiB",
              1);
  metrics.set("fail_frac",
              ratio(static_cast<double>(phase.samples.size() - phase.ok_count()),
                    static_cast<double>(phase.samples.size())),
              "ratio", n);
}

/// Per-layer metrics the engine reports itself, plus the set-up facts.
void reported_layer_metrics(const Spec& spec, const Phase& phase,
                            const Store& store, Metrics& metrics) {
  const Totals& t = phase.totals;
  const auto q = static_cast<std::uint64_t>(t.queries);
  const auto requests = static_cast<std::uint64_t>(phase.samples.size());
  const double per_query = t.queries > 0 ? 1.0 / t.queries : 0.0;
  const double per_request =
      requests > 0 ? 1.0 / static_cast<double>(requests) : 0.0;
  metrics.set("index.read_ops", t.read_ops * per_query, "count", q);
  metrics.set("index.useful_frac", ratio(t.active_metacells, t.records_fetched),
              "ratio", q);
  metrics.set("io.bytes_read_mib", t.bytes_read * per_query / kMiB, "MiB", q);
  metrics.set("io.seeks", t.seeks * per_query, "count", q);
  metrics.set("io.device_read_mib",
              static_cast<double>(phase.device_bytes) * per_request / kMiB,
              "MiB", requests);
  metrics.set("io.cache_hit_frac",
              ratio(t.hit_blocks, t.hit_blocks + t.miss_blocks + t.wait_blocks),
              "ratio", q);
  metrics.set("io.cache_wait_blocks", t.wait_blocks * per_query, "count", q);
  metrics.set("io.cache_evictions",
              static_cast<double>(phase.cache_evictions) * per_request, "count",
              requests);
  metrics.set("codec.ratio",
              ratio(static_cast<double>(store.prep.bytes_written),
                    static_cast<double>(store.prep.compressed_bytes_written)),
              "ratio", 1);
  metrics.set("codec.decode_ms", t.decode_s * per_query * 1e3, "ms", q);
  metrics.set("codec.decode_frac", ratio(t.decode_s, t.busy_s), "ratio", q);
  metrics.set("placement.rerouted_reads", t.rerouted * per_query, "count", q);
  metrics.set("placement.hedged_reads", t.hedged * per_query, "count", q);
  metrics.set("extract.classify_ms", t.classify_s * per_query * 1e3, "ms", q);
  metrics.set("extract.triangulate_ms",
              (t.triangulation_s - t.classify_s) * per_query * 1e3, "ms", q);
  metrics.set("extract.active_frac", ratio(t.active_cells, t.cells), "ratio", q);
  metrics.set("extract.mtri_per_cpu_s",
              ratio(t.triangles / 1e6, t.triangulation_s), "Mtri/s", q);
  metrics.set("compositing.bytes_mib", t.composite_bytes * per_query / kMiB,
              "MiB", q);
  metrics.set("parallel.node_imbalance", t.imbalance * per_query, "ratio", q);
  metrics.set("progressive.coarse_frac", ratio(t.coarse_ms, t.progressive_ms),
              "ratio", q);
  metrics.set("progressive.coarse_read_ops", t.coarse_read_ops * per_query,
              "count", q);
  if (spec.progressive) {
    for (const auto& [level, ms] : t.level_ms) {
      metrics.set("progressive.level" + std::to_string(level) + "_ms",
                  ms * per_query, "ms", q);
    }
  }
  metrics.set("serve.peak_in_flight", static_cast<double>(phase.peak_in_flight),
              "count", 1);
  metrics.set("preprocess.mib_per_s",
              ratio(static_cast<double>(store.prep.raw_bytes) / kMiB,
                    median(store.preprocess_seconds)),
              "MiB/s", store.preprocess_seconds.size());
  metrics.set("preprocess.hierarchy_mib",
              static_cast<double>(store.prep.hierarchy_bytes_written) / kMiB,
              "MiB", 1);
}

/// Per-layer metrics from the probe, the solo pass and the traced phase.
void traced_layer_metrics(const Spec& spec, const Phase& untraced,
                          const Phase& traced,
                          const std::vector<ProbeQuery>& probe,
                          const std::map<float, double>& solo_ms,
                          obs::Tracer& tracer, std::uint32_t traced_pids_begin,
                          std::uint32_t traced_pids_end, Metrics& metrics) {
  const auto n = static_cast<std::uint64_t>(probe.size());
  const double per_query = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  LayerTimes sum;
  for (const ProbeQuery& query : probe) {
    const LayerTimes& l = query.layers;
    sum.plan += l.plan;
    sum.schedule += l.schedule;
    sum.read += l.read;
    sum.decode += l.decode;
    sum.verify += l.verify;
    sum.metacell += l.metacell;
    sum.extract += l.extract;
    sum.raster += l.raster;
    sum.merge += l.merge;
    sum.crc += l.crc;
    sum.bridged_gap_bytes += l.bridged_gap_bytes;
    sum.fragments_written += l.fragments_written;
  }
  metrics.set("index.plan_ms", sum.plan * per_query, "ms", n);
  metrics.set("index.schedule_ms", sum.schedule * per_query, "ms", n);
  metrics.set("index.verify_ms", sum.verify * per_query, "ms", n);
  metrics.set("index.bridged_gap_mib",
              static_cast<double>(sum.bridged_gap_bytes) * per_query / kMiB,
              "MiB", n);
  metrics.set("io.read_ms", sum.read * per_query, "ms", n);
  metrics.set("metacell.decode_ms", sum.metacell * per_query, "ms", n);
  metrics.set("extract.metacell_ms", sum.extract * per_query, "ms", n);
  metrics.set("render.raster_ms", sum.raster * per_query, "ms", n);
  metrics.set("render.fragments_written",
              static_cast<double>(sum.fragments_written) * per_query, "count",
              n);
  metrics.set("compositing.merge_ms", sum.merge * per_query, "ms", n);
  metrics.set("pipeline.crc_ms", sum.crc * per_query, "ms", n);

  // The single-threaded cost of the work the workload's queries do: render
  // and composite only where they render, the CRC only where the engine
  // computes it (progressive level 0).
  const std::map<float, double> measured = mean_latency(untraced);
  double serial_total = 0.0;
  double measured_total = 0.0;
  double solo_total = 0.0;
  double solo_measured_total = 0.0;
  for (const ProbeQuery& query : probe) {
    const LayerTimes& l = query.layers;
    const double serial = l.plan + l.schedule + l.read + l.decode + l.verify +
                          l.metacell + l.extract +
                          (spec.render ? l.raster + l.merge : 0.0) +
                          (spec.progressive ? l.crc : 0.0);
    const auto it = measured.find(query.isovalue);
    if (it == measured.end()) continue;
    serial_total += serial;
    measured_total += it->second;
    const auto solo = solo_ms.find(query.isovalue);
    if (solo != solo_ms.end()) {
      solo_total += solo->second;
      solo_measured_total += it->second;
    }
  }
  metrics.set("pipeline.serial_ms", serial_total * per_query, "ms", n);
  metrics.set("pipeline.speedup", ratio(serial_total, measured_total), "ratio",
              n);
  metrics.set("serve.slowdown", ratio(solo_measured_total, solo_total), "ratio",
              static_cast<std::uint64_t>(solo_ms.size()));

  // Admission wait: the server's own "admission.wait" spans of the traced
  // phase's requests.
  double wait_ms = 0.0;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.name == "admission.wait" && event.pid >= traced_pids_begin &&
        event.pid < traced_pids_end) {
      wait_ms += static_cast<double>(event.dur_us) / 1e3;
    }
  }
  double traced_latency_ms = 0.0;
  for (const Sample& s : traced.samples) {
    if (s.ok) traced_latency_ms += s.latency_ms;
  }
  const auto traced_n = static_cast<std::uint64_t>(traced.samples.size());
  metrics.set("serve.admission_wait_ms",
              traced_n > 0 ? wait_ms / static_cast<double>(traced_n) : 0.0,
              "ms", traced_n);
  metrics.set("serve.admission_wait_frac", ratio(wait_ms, traced_latency_ms),
              "ratio", traced_n);
  metrics.set("obs.trace_overhead_frac",
              ratio(percentile(traced.latencies(), 0.5),
                    percentile(untraced.latencies(), 0.5)) -
                  1.0,
              "ratio", traced_n);
}

}  // namespace

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kSweepCold: return "sweep-cold";
    case Workload::kServeHot: return "serve-hot";
    case Workload::kServeChurn: return "serve-churn";
    case Workload::kProgressive: return "progressive";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload workload : kAllWorkloads) {
    if (workload_name(workload) == name) return workload;
  }
  return std::nullopt;
}

WorkloadResult run_workload(Workload workload, const RunConfig& config,
                            Dataset& dataset) {
  const Spec spec = make_spec(workload, config, dataset.setup().isovalues);
  WorkloadResult result;
  result.name = std::string(workload_name(workload));
  const bool traced = config.tracer != nullptr;

  // Set-up and references need the volume; nothing after them does, so it
  // is released before any measurement (peak_rss_mib excludes it).
  std::unique_ptr<Store> store;
  std::map<float, Reference> references;
  {
    const core::VolumeU8 volume = dataset.volume();
    references = dataset.references(volume, spec.values, spec.progressive);
    if (traced) {
      for (auto& [isovalue, ref] :
           dataset.references(volume, spec.probe_values, true)) {
        references[isovalue] = ref;
      }
    }
    store = build_store(spec, config, volume);
  }

  Checks checks;
  checks.references = &references;
  const double phase_seconds = traced ? config.seconds / 2.0 : config.seconds;
  // Trace pids: the workload's own range, so concurrent queries of every
  // phase and the probe never collide in one trace.
  const std::uint32_t pid_base =
      1 + 1'000'000u * static_cast<std::uint32_t>(workload);

  Phase untraced;
  std::map<float, double> solo_ms;
  {
    Runner runner(spec, *store, nullptr, pid_base);
    verify(runner, spec, checks, result);
    RequestStream stream(spec.unit, config.seed, /*stream=*/1);
    untraced = run_phase(runner, stream, spec.clients, phase_seconds, checks);
    record_phase(untraced, result);
    if (traced) {
      for (const float isovalue : spec.probe_values) {
        solo_ms[isovalue] = runner.solo_flat_ms(isovalue);
      }
    }
  }
  result.timed_requests = untraced.samples.size();
  end_to_end_metrics(untraced, *store, result.end_to_end);
  reported_layer_metrics(spec, untraced, *store, result.per_layer);

  if (traced) {
    const std::uint32_t traced_pid = pid_base + 100'000;
    Phase traced_phase;
    std::vector<ProbeQuery> probe;
    {
      Runner runner(spec, *store, config.tracer, traced_pid);
      if (spec.served && !spec.progressive) {
        // A fresh server starts with empty pools: warm them like the
        // untraced phase's were.
        verify(runner, spec, checks, result);
      }
      RequestStream stream(spec.unit, config.seed, /*stream=*/2);
      traced_phase =
          run_phase(runner, stream, spec.clients, phase_seconds, checks);
      record_phase(traced_phase, result);

      ProbeConfig probe_config;
      probe_config.cluster = store->cluster.get();
      probe_config.data = &store->prep;
      probe_config.storage_dir = store->dir;
      probe_config.pooled = spec.served;
      probe_config.cold = spec.cold;
      probe_config.progressive = spec.progressive;
      probe_config.tracer = config.tracer;
      probe_config.first_pid = pid_base + 900'000;
      probe = run_probe(probe_config, spec.probe_values);
    }
    for (const ProbeQuery& query : probe) {
      ++result.attempted;
      const Reference& ref = references.at(query.isovalue);
      if (!ref.crc.has_value() || query.crc != *ref.crc ||
          query.triangles != ref.mesh.triangles) {
        ++result.failed;
        result.correct = false;
        result.problems.push_back("probe iso " + std::to_string(query.isovalue) +
                                  ": mesh differs from the in-core reference");
      }
    }
    traced_layer_metrics(spec, untraced, traced_phase, probe, solo_ms,
                         *config.tracer, traced_pid, pid_base + 900'000,
                         result.per_layer);
  }
  return result;
}

}  // namespace oociso::benchsuite
