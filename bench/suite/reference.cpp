#include "reference.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "data/raw_io.h"
#include "data/rm_generator.h"
#include "extract/marching_cubes.h"
#include "util/crc32.h"
#include "util/timer.h"

namespace oociso::benchsuite {
namespace {

std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// A sibling path unique to this process, renamed over the target once
/// complete: concurrent or interrupted runs never leave a torn cache file.
std::filesystem::path temp_sibling(const std::filesystem::path& path) {
  return path.string() + ".tmp" + std::to_string(::getpid());
}

/// The repository benches' set-up at base width `dims`, every other flag at
/// its default.
bench::BenchSetup paper_setup(std::int32_t dims) {
  char program[] = "oociso_bench";
  char* argv[] = {program, nullptr};
  return bench::BenchSetup::from_cli(1, argv, dims);
}

/// CRC-32 of the running binary's file, as 8 hex digits.
std::string binary_crc() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::vector<char> buffer(std::size_t{1} << 20);
  std::uint32_t state = util::crc32_init();
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
    state = util::crc32_update(
        state, std::as_bytes(std::span(buffer.data(),
                                       static_cast<std::size_t>(in.gcount()))));
  }
  if (!in.eof()) throw std::runtime_error("cannot read /proc/self/exe");
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x",
                static_cast<unsigned>(util::crc32_final(state)));
  return hex;
}

}  // namespace

MeshDigest digest(const extract::TriangleSoup& soup) {
  MeshDigest out;
  out.triangles = soup.size();
  for (const extract::Triangle& tri : soup.triangles()) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const core::Vec3* v : {&tri.a, &tri.b, &tri.c}) {
      for (const float coordinate : {v->x, v->y, v->z}) {
        const auto quantized = static_cast<std::int64_t>(
            std::llround(static_cast<double>(coordinate) * 4096.0));
        h = mix(h ^ static_cast<std::uint64_t>(quantized));
      }
    }
    out.sum += h;
  }
  return out;
}

Dataset::Dataset(std::int32_t dims, std::filesystem::path cache_dir)
    : setup_(paper_setup(dims)), cache_dir_(std::move(cache_dir)) {
  std::filesystem::create_directories(cache_dir_);
  const core::GridDims& d = setup_.rm.dims;
  const std::string configuration =
      "rm-" + std::to_string(d.nx) + "x" + std::to_string(d.ny) + "x" +
      std::to_string(d.nz) + "-s" + std::to_string(setup_.rm.seed) + "-t" +
      std::to_string(setup_.time_step) + "-";
  stem_ = configuration + binary_crc();
  // Caches of this configuration written by another build are stale.
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(configuration) && !name.starts_with(stem_)) {
      std::filesystem::remove(entry.path());
    }
  }
}

core::VolumeU8 Dataset::volume() {
  const util::WallTimer timer;
  const std::filesystem::path path = cache_dir_ / (stem_ + ".oocv");
  core::VolumeU8 volume;
  if (std::filesystem::exists(path)) {
    volume = std::get<core::VolumeU8>(data::read_volume(path));
  } else {
    data::AnyVolume generated =
        data::generate_rm_timestep(setup_.rm, setup_.time_step);
    const std::filesystem::path temp = temp_sibling(path);
    data::write_volume(generated, temp);
    std::filesystem::rename(temp, path);
    volume = std::get<core::VolumeU8>(std::move(generated));
    if (!loaded_once_) generated_ = true;
  }
  if (!loaded_once_) {
    gen_seconds_ = timer.seconds();
    loaded_once_ = true;
  }
  return volume;
}

std::map<float, Reference> Dataset::references(
    const core::VolumeU8& volume, std::span<const float> isovalues,
    bool with_crc) {
  const std::filesystem::path path = cache_dir_ / (stem_ + "-reference.txt");
  // Line format: isovalue triangles digest-sum crc (crc -1 = not computed).
  std::map<float, Reference> cached;
  {
    std::ifstream in(path);
    float isovalue = 0.0f;
    std::uint64_t triangles = 0;
    std::uint64_t sum = 0;
    std::int64_t crc = 0;
    while (in >> isovalue >> triangles >> sum >> crc) {
      Reference& ref = cached[isovalue];
      ref.mesh = MeshDigest{triangles, sum};
      if (crc >= 0) ref.crc = static_cast<std::uint32_t>(crc);
    }
  }

  bool changed = false;
  std::map<float, Reference> out;
  for (const float isovalue : isovalues) {
    const auto it = cached.find(isovalue);
    if (it != cached.end() && (!with_crc || it->second.crc.has_value())) {
      out[isovalue] = it->second;
      continue;
    }
    extract::TriangleSoup soup;
    extract::extract_volume(volume, isovalue, soup);
    Reference ref;
    ref.mesh = digest(soup);
    if (with_crc) ref.crc = extract::canonical_mesh_crc(soup);
    cached[isovalue] = ref;
    out[isovalue] = ref;
    changed = true;
  }

  if (changed) {
    const std::filesystem::path temp = temp_sibling(path);
    {
      std::ofstream file(temp, std::ios::trunc);
      for (const auto& [isovalue, ref] : cached) {
        char line[128];
        std::snprintf(line, sizeof(line), "%.9g %llu %llu %lld\n",
                      static_cast<double>(isovalue),
                      static_cast<unsigned long long>(ref.mesh.triangles),
                      static_cast<unsigned long long>(ref.mesh.sum),
                      ref.crc.has_value()
                          ? static_cast<long long>(*ref.crc)
                          : -1LL);
        file << line;
      }
      if (!file) throw std::runtime_error("cannot write " + temp.string());
    }
    std::filesystem::rename(temp, path);
  }
  return out;
}

}  // namespace oociso::benchsuite
