#pragma once
// The four benchmark workloads (see README.md for why each exists).
//
//   sweep-cold   flat store, 1 client, QueryEngine::run over the paper's
//                sweep with every node store dropped from the page cache
//                before each query; render + binary-swap composite on.
//   serve-hot    flat store, 4 clients through a QueryServer whose pools
//                hold the whole stripe; Zipf(1.1) isovalue mix, render off.
//   serve-churn  LZ-compressed, 2-way replicated store, 4 clients, pools
//                holding about a quarter of the stripe; uniform mix.
//   progressive  3-level store, 1 client, query_progressive on cold pools
//                and a dropped page cache.
//
// Every workload is a closed loop: a client sends its next request when the
// previous one returns. Requests come in units (one sweep, one Zipf round,
// one pass over the uniform set), each shuffled from the run seed; the
// measured phase runs whole units until the requested seconds have passed,
// so every run issues the same request mix.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "reference.h"
#include "report.h"

namespace oociso::benchsuite {

enum class Workload { kSweepCold, kServeHot, kServeChurn, kProgressive };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kSweepCold, Workload::kServeHot, Workload::kServeChurn,
    Workload::kProgressive};

[[nodiscard]] std::string_view workload_name(Workload workload);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

struct RunConfig {
  std::uint64_t seed = 42;
  /// Measured-phase length; every phase runs at least one whole unit, so 0
  /// means "one unit".
  double seconds = 0.0;
  /// Node stores are created under `<work_dir>/stores` and removed after
  /// the workload.
  std::filesystem::path work_dir;
  /// Non-null: a traced run. The measured time is split between an
  /// untraced and a traced phase, and the probe and solo passes run after.
  obs::Tracer* tracer = nullptr;
  /// Preprocessing repetitions behind setup_s (median).
  int setup_reps = 5;
  /// Isovalues the probe and the solo pass visit.
  std::size_t probe_queries = 5;
  /// Concurrent clients of the serving workloads (at most nproc).
  std::size_t clients = 4;
};

struct WorkloadResult {
  std::string name;
  bool correct = true;
  std::uint64_t attempted = 0;  ///< verified + timed + probed requests
  std::uint64_t failed = 0;
  std::uint64_t timed_requests = 0;  ///< untraced measured phase
  Metrics end_to_end;
  Metrics per_layer;
  std::vector<std::string> problems;  ///< one line per failed check
};

/// Sets up the workload's store, verifies it against the in-core reference,
/// runs the measured phase(s) and, when traced, the probe.
[[nodiscard]] WorkloadResult run_workload(Workload workload,
                                          const RunConfig& config,
                                          Dataset& dataset);

}  // namespace oociso::benchsuite
