#include "src/lat/lat_syscall.h"

#include <fcntl.h>
#include <sys/select.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/do_not_optimize.h"
#include "src/core/registry.h"
#include "src/report/table.h"
#include "src/sys/error.h"
#include "src/sys/fdio.h"
#include "src/sys/pipe.h"
#include "src/sys/temp.h"
#include "src/sys/unique_fd.h"

namespace lmb::lat {

Measurement measure_null_write(const TimingPolicy& policy) {
  sys::UniqueFd fd = sys::open_write("/dev/null");
  return measure(
      [&](std::uint64_t iters) {
        char word[4] = {'l', 'm', 'b', '\n'};
        for (std::uint64_t i = 0; i < iters; ++i) {
          if (::write(fd.get(), word, sizeof(word)) != sizeof(word)) {
            sys::throw_errno("write /dev/null");
          }
        }
      },
      policy);
}

Measurement measure_getpid(const TimingPolicy& policy) {
  return measure(
      [](std::uint64_t iters) {
        long pid = 0;
        for (std::uint64_t i = 0; i < iters; ++i) {
          pid += ::syscall(SYS_getpid);
        }
        do_not_optimize(pid);
      },
      policy);
}

Measurement measure_null_read(const TimingPolicy& policy) {
  sys::UniqueFd fd = sys::open_read("/dev/zero");
  return measure(
      [&](std::uint64_t iters) {
        char byte = 0;
        for (std::uint64_t i = 0; i < iters; ++i) {
          if (::read(fd.get(), &byte, 1) != 1) {
            sys::throw_errno("read /dev/zero");
          }
        }
        do_not_optimize(byte);
      },
      policy);
}

Measurement measure_stat(const std::string& path, const TimingPolicy& policy) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    sys::throw_errno("stat " + path);
  }
  return measure(
      [&](std::uint64_t iters) {
        struct stat s;
        for (std::uint64_t i = 0; i < iters; ++i) {
          if (::stat(path.c_str(), &s) != 0) {
            sys::throw_errno("stat");
          }
        }
        do_not_optimize(s.st_ino);
      },
      policy);
}

Measurement measure_open_close(const std::string& path, const TimingPolicy& policy) {
  return measure(
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          int fd = ::open(path.c_str(), O_RDONLY);
          if (fd < 0) {
            sys::throw_errno("open " + path);
          }
          ::close(fd);
        }
      },
      policy);
}

Measurement measure_select(int nfds, const TimingPolicy& policy) {
  if (nfds < 1 || nfds > FD_SETSIZE) {
    throw std::invalid_argument("measure_select: nfds out of range");
  }
  // Pipes provide quiet descriptors: select always times out immediately
  // with zero ready fds, so we measure pure polling cost over n fds.
  std::vector<sys::Pipe> pipes;
  pipes.reserve(static_cast<size_t>(nfds + 1) / 2);
  std::vector<int> fds;
  while (static_cast<int>(fds.size()) < nfds) {
    pipes.emplace_back();
    fds.push_back(pipes.back().read_fd());
    if (static_cast<int>(fds.size()) < nfds) {
      fds.push_back(pipes.back().write_fd());
    }
  }
  int maxfd = *std::max_element(fds.begin(), fds.end());

  return measure(
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          fd_set readable;
          FD_ZERO(&readable);
          for (int fd : fds) {
            FD_SET(fd, &readable);
          }
          struct timeval timeout = {0, 0};
          int n = ::select(maxfd + 1, &readable, nullptr, nullptr, &timeout);
          if (n < 0) {
            sys::throw_errno("select");
          }
        }
      },
      policy);
}

SyscallLatencies measure_syscall_suite(const TimingPolicy& policy) {
  SyscallLatencies out;
  out.null_write_us = measure_null_write(policy).us_per_op();
  out.getpid_us = measure_getpid(policy).us_per_op();
  out.read_us = measure_null_read(policy).us_per_op();

  sys::TempDir dir("lmb_syscall");
  sys::write_file(dir.file("probe"), "x");
  out.stat_us = measure_stat(dir.file("probe"), policy).us_per_op();
  out.open_close_us = measure_open_close(dir.file("probe"), policy).us_per_op();
  return out;
}

namespace {

TimingPolicy policy_from(const Options& opts) {
  return opts.quick() ? TimingPolicy::quick() : TimingPolicy::standard();
}

const BenchmarkRegistrar null_registrar{{
    .name = "lat_syscall",
    .category = "latency",
    .description = "simple system call: 1-word write to /dev/null (Table 7)",
    .run =
        [](const Options& opts) {
          Measurement m = measure_null_write(policy_from(opts));
          return RunResult{}.with(m).add("us", m.us_per_op(), "us");
        },
}};

const BenchmarkRegistrar getpid_registrar{{
    .name = "lat_getpid",
    .category = "latency",
    .description = "trivial system call: getpid",
    .run =
        [](const Options& opts) {
          Measurement m = measure_getpid(policy_from(opts));
          return RunResult{}.with(m).add("us", m.us_per_op(), "us");
        },
}};

const BenchmarkRegistrar select_registrar{{
    .name = "lat_select",
    .category = "latency",
    .description = "select() over N descriptors",
    .run =
        [](const Options& opts) {
          int n = opts.get_int_in("n", 64, 1, FD_SETSIZE);
          Measurement m = measure_select(n, policy_from(opts));
          RunResult r = RunResult{}.with(m).add("us", m.us_per_op(), "us");
          r.metadata["fds"] = std::to_string(n);
          return r;
        },
}};

}  // namespace

}  // namespace lmb::lat
