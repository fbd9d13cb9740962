#include "src/simfs/fs_bench.h"

#include <stdexcept>
#include <string>

#include "src/core/registry.h"
#include "src/core/virtual_clock.h"
#include "src/lat/lat_fs.h"
#include "src/report/table.h"
#include "src/simdisk/sim_disk.h"

namespace lmb::simfs {

SimFsBenchResult measure_simfs_latency(const SimFsBenchConfig& config) {
  if (config.file_count < 1 || static_cast<std::uint32_t>(config.file_count) > kMaxFiles) {
    throw std::invalid_argument("SimFsBenchConfig: file_count out of range");
  }
  VirtualClock clock;
  simdisk::DiskTimingParams timing = config.timing;
  if (config.mode == DurabilityMode::kJournaled && timing.write_cache_bytes == 0) {
    // Journaled filesystems let the drive cache absorb the sequential log
    // writes (bounded by media drain); synchronous-metadata filesystems
    // demand per-op media persistence (FUA), so they get no cache.
    timing.write_cache_bytes = 256 * 1024;
  }
  simdisk::SimDisk disk(config.geometry, timing, clock);
  SimFileSystem fs(disk, config.mode);

  std::vector<std::string> names = lat::short_file_names(config.file_count);

  Nanos start = clock.now();
  for (const auto& name : names) {
    fs.create(name);
  }
  double create_ns = static_cast<double>(clock.now() - start) / config.file_count;

  start = clock.now();
  for (const auto& name : names) {
    fs.remove(name);
  }
  double delete_ns = static_cast<double>(clock.now() - start) / config.file_count;

  SimFsBenchResult result;
  result.mode = config.mode;
  result.create_us = create_ns / 1e3;
  result.delete_us = delete_ns / 1e3;
  result.stats = fs.stats();
  return result;
}

namespace {

// Table 16's spread on the simulated disk: lat_fs's workload at its default
// (or --quick) file count in every durability mode, so one result holds
// all three disciplines.
const BenchmarkRegistrar registrar{{
    .name = "lat_fs_sim",
    .category = "disk",
    .description = "0-byte file create/delete on SimFs, each durability mode (Table 16)",
    .run =
        [](const Options& opts) {
          SimFsBenchConfig cfg;
          cfg.file_count =
              (opts.quick() ? lat::FsLatConfig::quick() : lat::FsLatConfig{}).file_count;
          RunResult out;
          std::string display;
          for (DurabilityMode mode :
               {DurabilityMode::kAsync, DurabilityMode::kJournaled, DurabilityMode::kSync}) {
            cfg.mode = mode;
            SimFsBenchResult r = measure_simfs_latency(cfg);
            const std::string name = durability_mode_name(mode);
            out.add(name + "_create_us", r.create_us, "us")
                .add(name + "_delete_us", r.delete_us, "us");
            display += name + " " + report::format_number(r.create_us, 0) + "/" +
                       report::format_number(r.delete_us, 0) + " us  ";
          }
          out.metadata["files"] = std::to_string(cfg.file_count);
          out.display = display;
          return out;
        },
}};

}  // namespace

}  // namespace lmb::simfs
