#include "src/lat/lat_fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <limits>
#include <optional>
#include <stdexcept>

#include "src/core/clock.h"
#include "src/core/registry.h"
#include "src/core/stats.h"
#include "src/report/table.h"
#include "src/sys/error.h"
#include "src/sys/temp.h"

namespace lmb::lat {

std::vector<std::string> short_file_names(int count) {
  if (count < 0) {
    throw std::invalid_argument("short_file_names: negative count");
  }
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Bijective base-26: 0->"a", 25->"z", 26->"aa", ...
    std::string name;
    int n = i;
    while (true) {
      name.insert(name.begin(), static_cast<char>('a' + n % 26));
      n = n / 26 - 1;
      if (n < 0) {
        break;
      }
    }
    names.push_back(std::move(name));
  }
  return names;
}

FsLatResult measure_fs_latency(const FsLatConfig& config) {
  if (config.file_count < 1 || config.repetitions < 1) {
    throw std::invalid_argument("FsLatConfig: counts must be >= 1");
  }
  std::optional<sys::TempDir> temp;
  std::string dir = config.dir;
  if (dir.empty()) {
    temp.emplace("lmb_fs");
    dir = temp->path();
  }

  std::vector<std::string> paths;
  paths.reserve(static_cast<size_t>(config.file_count));
  for (const auto& name : short_file_names(config.file_count)) {
    paths.push_back(dir + "/" + name);
  }

  Sample create_ns;
  Sample delete_ns;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    StopWatch sw;
    for (const auto& path : paths) {
      int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (fd < 0) {
        sys::throw_errno("create " + path);
      }
      ::close(fd);
    }
    create_ns.add(static_cast<double>(sw.elapsed()) / config.file_count);

    sw.reset();
    for (const auto& path : paths) {
      if (::unlink(path.c_str()) != 0) {
        sys::throw_errno("unlink " + path);
      }
    }
    delete_ns.add(static_cast<double>(sw.elapsed()) / config.file_count);
  }

  FsLatResult result;
  result.file_count = config.file_count;
  result.create_us = create_ns.min() / 1e3;
  result.delete_us = delete_ns.min() / 1e3;
  return result;
}

namespace {

const BenchmarkRegistrar registrar{{
    .name = "lat_fs",
    .category = "latency",
    .description = "0-byte file create/delete latency (Table 16)",
    .run =
        [](const Options& opts) {
          FsLatConfig cfg = opts.quick() ? FsLatConfig::quick() : FsLatConfig{};
          cfg.file_count =
              opts.get_int_in("files", cfg.file_count, 1, std::numeric_limits<int>::max());
          cfg.dir = opts.get_string("dir", cfg.dir);
          FsLatResult r = measure_fs_latency(cfg);
          RunResult out;
          out.add("create_us", r.create_us, "us").add("delete_us", r.delete_us, "us");
          out.metadata["files"] = std::to_string(r.file_count);
          out.display = "create " + report::format_number(r.create_us, 1) + " us, delete " +
                        report::format_number(r.delete_us, 1) + " us";
          return out;
        },
}};

}  // namespace

}  // namespace lmb::lat
