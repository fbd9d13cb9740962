#include "src/lat/lat_syscall.h"

#include <gtest/gtest.h>

#include "src/sys/fdio.h"
#include "src/sys/temp.h"

namespace lmb::lat {
namespace {

const TimingPolicy kQuick = TimingPolicy::quick();

TEST(LatSyscallTest, NullWriteIsMicrosecondScale) {
  Measurement m = measure_null_write(kQuick);
  EXPECT_GT(m.us_per_op(), 0.01);  // a syscall costs something
  EXPECT_LT(m.us_per_op(), 100.0);
}

TEST(LatSyscallTest, GetpidIsNotSlowerThanNullWriteByMuch) {
  double getpid_us = measure_getpid(kQuick).us_per_op();
  double write_us = measure_null_write(kQuick).us_per_op();
  // getpid is the cheapest syscall; allow noise but it must be same scale.
  EXPECT_LT(getpid_us, write_us * 5.0);
}

TEST(LatSyscallTest, NullReadWorks) {
  Measurement m = measure_null_read(kQuick);
  EXPECT_GT(m.us_per_op(), 0.01);
  EXPECT_LT(m.us_per_op(), 100.0);
}

TEST(LatSyscallTest, StatAndOpenCloseOnRealFile) {
  sys::TempDir dir("lmb_sc");
  sys::write_file(dir.file("f"), "x");
  double stat_us = measure_stat(dir.file("f"), kQuick).us_per_op();
  double open_us = measure_open_close(dir.file("f"), kQuick).us_per_op();
  EXPECT_GT(stat_us, 0.01);
  // open+close does strictly more work than stat.
  EXPECT_GT(open_us, stat_us * 0.5);
}

TEST(LatSyscallTest, StatOfMissingFileThrows) {
  EXPECT_THROW(measure_stat("/no/such/file/here", kQuick), std::exception);
}

TEST(LatSyscallTest, SelectScalesWithDescriptorCount) {
  double few = measure_select(4, kQuick).us_per_op();
  double many = measure_select(256, kQuick).us_per_op();
  EXPECT_GT(few, 0.0);
  EXPECT_GT(many, few);  // more fds = more kernel polling work
}

TEST(LatSyscallTest, SelectValidatesRange) {
  EXPECT_THROW(measure_select(0, kQuick), std::invalid_argument);
  EXPECT_THROW(measure_select(100000, kQuick), std::invalid_argument);
}

}  // namespace
}  // namespace lmb::lat
