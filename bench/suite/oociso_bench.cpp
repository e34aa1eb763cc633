// oociso_bench: the end-to-end benchmark of the out-of-core isosurface
// system (workloads, metrics and bounds: README.md in this directory).
//
//   oociso_bench --workload <sweep-cold|serve-hot|serve-churn|progressive|all>
//                [--seed N] [--seconds S] [--json PATH] [--trace PATH]
//                [--work-dir DIR]
//   oociso_bench --smoke [--work-dir DIR]
//
// Prints every metric as "<workload> <metric> <value> <unit> (n=<samples>)"
// and a "<workload> correct <bool> attempted <n> failed <n>" line; --json
// also writes them with the run's host facts. --trace makes the run a
// traced one: half the measured time runs with the program's tracer
// attached, then the per-layer probe runs, and the spans are written to
// PATH at exit. --smoke runs all four workloads at dims 48, untraced and
// traced, and validates the JSON and trace documents it wrote against the
// repository's BENCHMARK.json.

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cold.h"
#include "data/rm_generator.h"
#include "extract/kernel.h"
#include "obs/trace.h"
#include "reference.h"
#include "report.h"
#include "util/cli.h"
#include "util/json.h"
#include "workloads.h"

#ifndef OOCISO_BENCH_BUILD_TYPE
#define OOCISO_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef OOCISO_BENCHMARK_JSON
#define OOCISO_BENCHMARK_JSON "BENCHMARK.json"
#endif

namespace oociso::benchsuite {
namespace {

constexpr const char* kUsage =
    "usage: oociso_bench --workload <sweep-cold|serve-hot|serve-churn|"
    "progressive|all> [--seed N] [--seconds S] [--json PATH] [--trace PATH]\n"
    "                    [--work-dir DIR]\n"
    "       oociso_bench --smoke [--work-dir DIR]\n";

struct Options {
  std::vector<Workload> workloads;
  std::int32_t dims = 384;  ///< base width of the RM-analog volume
  RunConfig run;
  std::string json_path;
  std::string trace_path;
};

std::size_t nproc() {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<std::size_t>(online) : 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs the selected workloads; returns the JSON document.
std::string run(const Options& options) {
  Dataset dataset(options.dims, options.run.work_dir / "cache");
  // Without a resettable VmHWM, peak_rss_mib would include set-up.
  const bool rss_resettable = reset_peak_rss();
  std::unique_ptr<obs::Tracer> tracer;
  RunConfig config = options.run;
  if (!options.trace_path.empty()) {
    tracer = std::make_unique<obs::Tracer>();
    config.tracer = tracer.get();
  }

  std::vector<WorkloadResult> results;
  for (const Workload workload : options.workloads) {
    results.push_back(run_workload(workload, config, dataset));
  }

  const std::string isa(extract::kernel::isa_name(extract::kernel::dispatch()));
  const data::RmConfig& volume = dataset.setup().rm;
  bench::JsonWriter json;
  json.begin_object().member("schema", "oociso-bench/1");
  json.key("meta")
      .begin_object()
      .member("nproc", static_cast<std::uint64_t>(nproc()))
      .member("clients", static_cast<std::uint64_t>(config.clients))
      .member("cpu_model", std::string_view(cpu_model()))
      .member("kernel_isa", std::string_view(isa))
      .member("store_fs", std::string_view(filesystem_type(config.work_dir)))
      .member("build_type", OOCISO_BENCH_BUILD_TYPE)
      .member("dims", static_cast<std::uint64_t>(options.dims))
      .member("volume_seed", volume.seed)
      .member("time_step", static_cast<std::int64_t>(dataset.setup().time_step))
      .member("seed", config.seed)
      .member("seconds", config.seconds)
      .member("traced", tracer != nullptr)
      .member("gen_s", dataset.gen_seconds())
      .member("volume_generated", dataset.generated())
      .member("peak_rss_resettable", rss_resettable);
  json.key("requests").begin_object();
  for (const WorkloadResult& result : results) {
    json.member(result.name, result.timed_requests);
  }
  json.end_object().end_object();

  std::cout << "# oociso_bench: RM-analog " << volume.dims.nx << "x"
            << volume.dims.ny << "x" << volume.dims.nz << ", volume seed "
            << volume.seed << ", seed "
            << config.seed << ", nproc " << nproc() << ", " << isa << ", "
            << OOCISO_BENCH_BUILD_TYPE << "\n"
            << "gen_s " << dataset.gen_seconds()
            << (dataset.generated() ? " (generated)" : " (cached)") << "\n";
  json.key("workloads").begin_object();
  for (const WorkloadResult& result : results) {
    std::cout << metric_lines(result.name, result.end_to_end)
              << metric_lines(result.name, result.per_layer) << result.name
              << " correct " << (result.correct ? "true" : "false")
              << " attempted " << result.attempted << " failed "
              << result.failed << "\n";
    for (const std::string& problem : result.problems) {
      std::cerr << result.name << ": " << problem << "\n";
    }
    json.key(result.name)
        .begin_object()
        .member("correct", result.correct)
        .member("attempted", result.attempted)
        .member("failed", result.failed)
        .member("timed_requests", result.timed_requests);
    write_metrics(json, "end_to_end", result.end_to_end);
    write_metrics(json, "per_layer", result.per_layer);
    json.key("problems").begin_array();
    for (const std::string& problem : result.problems) json.value(problem);
    json.end_array().end_object();
  }
  json.end_object().end_object();

  if (!options.json_path.empty()) json.save(options.json_path);
  if (tracer != nullptr) tracer->write(options.trace_path);
  return json.str();
}

/// Checks one run's JSON against BENCHMARK.json: every declared workload
/// correct with no failed request, and every declared end-to-end (and, when
/// traced, per-layer) metric present, numeric and in its declared unit.
void validate(const std::string& document, const util::JsonValue& declared,
              bool traced) {
  const util::JsonValue root = util::parse_json(document);
  for (const util::JsonValue& workload : declared.at("workloads").as_array()) {
    const std::string& name = workload.at("name").as_string();
    const util::JsonValue& w = root.at("workloads").at(name);
    if (!w.at("correct").as_bool() || w.at("failed").as_number() != 0.0) {
      throw std::runtime_error(name + ": run not correct");
    }
    for (const char* section : {"end_to_end", "per_layer"}) {
      if (!traced && std::string_view(section) == "per_layer") continue;
      for (const util::JsonValue& metric : declared.at(section).as_array()) {
        const util::JsonValue& got = w.at(section).at(metric.at("name").as_string());
        static_cast<void>(got.at("value").as_number());
        if (got.at("unit").as_string() != metric.at("unit").as_string()) {
          throw std::runtime_error(name + ": unit of " +
                                   metric.at("name").as_string());
        }
      }
    }
  }
}

/// Both run kinds over all four workloads at a small size.
int smoke(const std::filesystem::path& work_dir) {
  std::filesystem::create_directories(work_dir);
  Options options;
  options.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
  options.dims = 48;
  options.run.work_dir = work_dir;
  options.run.setup_reps = 1;
  options.run.probe_queries = 2;
  options.run.clients = std::min<std::size_t>(4, nproc());

  const util::JsonValue declared =
      util::parse_json(read_file(OOCISO_BENCHMARK_JSON));
  validate(run(options), declared, /*traced=*/false);
  options.trace_path = (work_dir / "smoke-trace.json").string();
  validate(run(options), declared, /*traced=*/true);
  const util::JsonValue trace = util::parse_json(read_file(options.trace_path));
  if (trace.at("traceEvents").as_array().empty()) {
    throw std::runtime_error("trace holds no events");
  }
  std::cout << "smoke: PASS\n";
  return 0;
}

int main_impl(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  args.require_known(
      {"workload", "seed", "seconds", "json", "trace", "work-dir", "smoke"});
  const std::filesystem::path work_dir =
      args.get("work-dir", ".bench_build/work");
  if (args.get_bool("smoke", false)) return smoke(work_dir);

  Options options;
  const std::string workload = args.get("workload", "");
  if (workload == "all") {
    options.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
  } else if (const std::optional<Workload> parsed = parse_workload(workload)) {
    options.workloads.push_back(*parsed);
  } else {
    throw util::UsageError("--workload must name a workload or 'all'");
  }
  options.run.seed =
      static_cast<std::uint64_t>(args.get_int_in("seed", 42, 0, 1LL << 62));
  options.run.seconds = args.get_double("seconds", 0.0);
  if (!(options.run.seconds >= 0.0 && options.run.seconds <= 3600.0)) {
    throw util::UsageError("--seconds must lie in [0, 3600]");
  }
  options.run.work_dir = work_dir;
  options.run.clients = std::min<std::size_t>(4, nproc());
  options.json_path = args.get("json", "");
  options.trace_path = args.get("trace", "");
  std::filesystem::create_directories(work_dir);
  run(options);
  return 0;
}

}  // namespace
}  // namespace oociso::benchsuite

int main(int argc, char** argv) {
  try {
    return oociso::benchsuite::main_impl(argc, argv);
  } catch (const oociso::util::UsageError& error) {
    std::cerr << "oociso_bench: " << error.what() << "\n"
              << oociso::benchsuite::kUsage;
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "oociso_bench: " << error.what() << "\n";
    return 1;
  }
}
