#include "src/netsim/stream.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/netsim/simnet.h"

namespace lmb::netsim {
namespace {

TEST(StreamTest, BigWindowReachesWireRate) {
  LinkProfile link = LinkProfile::ethernet_10baseT();
  StreamConfig cfg;
  cfg.total_bytes = 4u << 20;
  cfg.window_bytes = 1u << 20;
  StreamResult r = simulate_stream_transfer(link, cfg);
  EXPECT_EQ(r.bytes, cfg.total_bytes);
  EXPECT_GT(r.segments, 0u);
  EXPECT_GT(r.acks, 0u);
  // With a huge window and no host costs, throughput approaches the link's
  // payload rate (slightly below: header bytes per segment).
  EXPECT_GT(r.mb_per_sec, link.payload_mb_per_sec() * 0.8);
  EXPECT_LT(r.mb_per_sec, link.payload_mb_per_sec() * 1.05);
}

TEST(StreamTest, SmallWindowIsRttLimited) {
  // throughput ~= window / RTT when window-limited.
  LinkProfile link = LinkProfile::hippi();  // fast wire, so window dominates
  StreamConfig cfg;
  cfg.total_bytes = 8u << 20;
  cfg.window_bytes = 64u << 10;
  cfg.per_segment_cost = kMillisecond;  // makes the RTT long
  StreamResult r = simulate_stream_transfer(link, cfg);
  // One ~64KB window per ~2.7ms RTT is far below the ~95 MB/s wire.
  EXPECT_LT(r.mb_per_sec, link.payload_mb_per_sec() / 2);
}

// Window vs throughput (§5.2 enlarges the socket buffers to 1 MB).  Below
// the bandwidth-delay product a stream moves one window per round trip;
// above it, the hosts' per-segment cost sets the rate.  HIPPI with 1 ms of
// host cost per segment puts the product near 170 KB, well above the small
// windows.  Each expected rate is derived from the model's parameters.
TEST(StreamTest, ThroughputMonotoneInWindow) {
  const LinkProfile link = LinkProfile::hippi();
  constexpr Nanos kCost = kMillisecond;
  constexpr std::uint32_t kHeader = 40;  // TCP/IP bytes on every segment and ack
  const std::uint64_t mss = link.mtu_payload - kHeader;
  auto mb_per_sec = [](double bytes, double ns) { return bytes / (ns / 1e9) / (1024.0 * 1024.0); };
  // A one-segment window: the segment out and its ack back, each paying
  // kCost on its host first.
  auto rtt_ns = [&](std::uint64_t window) {
    const auto payload = static_cast<std::uint32_t>(window) + kHeader;
    return static_cast<double>(2 * kCost + link.one_way_time(payload) + link.one_way_time(kHeader));
  };
  // The sender pays kCost per segment, and a window of W bytes goes out as
  // ceil(W / mss) segments.
  auto host_bound = [&](std::uint64_t window) {
    const std::uint64_t segments = (window + mss - 1) / mss;
    return mb_per_sec(static_cast<double>(window) / static_cast<double>(segments), kCost);
  };
  const double product = host_bound(mss) * 1024 * 1024 * rtt_ns(mss) / 1e9;
  ASSERT_GT(product, 32u << 10);
  ASSERT_LT(product, 256u << 10);
  ASSERT_LT(host_bound(mss), link.payload_mb_per_sec());  // the hosts, not the wire

  double prev = 0.0;
  for (std::uint64_t window : {8u << 10, 16u << 10, 32u << 10, 256u << 10, 1u << 20, 4u << 20}) {
    StreamConfig cfg;
    cfg.total_bytes = 8u << 20;
    cfg.window_bytes = window;
    cfg.per_segment_cost = kCost;
    const double mb = simulate_stream_transfer(link, cfg).mb_per_sec;
    double expected = host_bound(window);
    if (window < product) {
      ASSERT_LT(window, mss);  // one segment per round trip
      expected = mb_per_sec(static_cast<double>(window), rtt_ns(window));
    }
    // 3% covers the first window's ramp and the last ack's return.
    EXPECT_NEAR(mb, expected, 0.03 * expected) << "window " << window;
    EXPECT_GT(mb, prev) << "window " << window;
    prev = mb;
  }
}

TEST(StreamTest, PerByteCostCapsThroughput) {
  LinkProfile link = LinkProfile::hippi();
  StreamConfig fast;
  fast.total_bytes = 4u << 20;
  fast.window_bytes = 4u << 20;
  StreamConfig slow = fast;
  slow.per_byte_cost_ns = 100.0;  // 10 MB/s host processing ceiling
  double unconstrained = simulate_stream_transfer(link, fast).mb_per_sec;
  double host_bound = simulate_stream_transfer(link, slow).mb_per_sec;
  EXPECT_LT(host_bound, unconstrained / 2);
  EXPECT_LT(host_bound, 11.0);  // ~1e9/100ns per byte = 9.5 MB/s (2^20)
}

TEST(StreamTest, ValidatesConfig) {
  StreamConfig bad;
  bad.total_bytes = 0;
  EXPECT_THROW(simulate_stream_transfer(LinkProfile::fddi(), bad), std::invalid_argument);
  bad.total_bytes = 1024;
  bad.window_bytes = 0;
  EXPECT_THROW(simulate_stream_transfer(LinkProfile::fddi(), bad), std::invalid_argument);
}

TEST(ConnectTimeTest, IsOneRttPlusProcessing) {
  LinkProfile link = LinkProfile::ethernet_10baseT();
  Nanos cost = 100 * kMicrosecond;
  Nanos t = simulate_connect_time(link, cost);
  EXPECT_EQ(t, 3 * cost + 2 * link.one_way_time(44));
  // §6.7: "the connection cost is approximately half of the [total RPC]
  // cost" — at minimum, it must exceed one wire round trip.
  EXPECT_GT(t, 2 * link.one_way_time(44));
}

}  // namespace
}  // namespace lmb::netsim

namespace lmb::netsim {
namespace {

TEST(StreamLossTest, LossyTransferCompletesWithRetransmissions) {
  LinkProfile link = LinkProfile::ethernet_100baseT();
  StreamConfig cfg;
  cfg.total_bytes = 512u << 10;
  cfg.window_bytes = 64u << 10;
  cfg.loss_rate = 0.05;
  cfg.loss_seed = 7;
  cfg.retransmit_timeout = 5 * kMillisecond;
  StreamResult r = simulate_stream_transfer(link, cfg);
  EXPECT_EQ(r.bytes, cfg.total_bytes);
  EXPECT_GT(r.packets_lost, 0u);
  EXPECT_GT(r.retransmits, 0u);
  EXPECT_GT(r.mb_per_sec, 0.0);
}

TEST(StreamLossTest, ThroughputDegradesWithLoss) {
  LinkProfile link = LinkProfile::ethernet_100baseT();
  double prev = 1e18;
  for (double loss : {0.0, 0.02, 0.10}) {
    StreamConfig cfg;
    cfg.total_bytes = 512u << 10;
    cfg.window_bytes = 64u << 10;
    cfg.loss_rate = loss;
    cfg.retransmit_timeout = 5 * kMillisecond;
    double mb = simulate_stream_transfer(link, cfg).mb_per_sec;
    EXPECT_LT(mb, prev * 1.01) << "loss " << loss;
    prev = mb;
  }
}

TEST(StreamLossTest, DeterministicPerSeed) {
  LinkProfile link = LinkProfile::fddi();
  StreamConfig cfg;
  cfg.total_bytes = 128u << 10;
  cfg.window_bytes = 32u << 10;
  cfg.loss_rate = 0.05;
  cfg.retransmit_timeout = 5 * kMillisecond;
  StreamResult a = simulate_stream_transfer(link, cfg);
  StreamResult b = simulate_stream_transfer(link, cfg);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.retransmits, b.retransmits);
}

TEST(StreamLossTest, LossWithoutTimeoutRejected) {
  StreamConfig cfg;
  cfg.loss_rate = 0.1;
  cfg.retransmit_timeout = 0;
  EXPECT_THROW(simulate_stream_transfer(LinkProfile::fddi(), cfg), std::invalid_argument);
}

TEST(StreamLossTest, LossRateOutsideUnitIntervalRejected) {
  StreamConfig cfg;
  cfg.total_bytes = 64u << 10;
  cfg.retransmit_timeout = 5 * kMillisecond;
  for (double bad : {-0.01, 1.0, 1.5}) {
    cfg.loss_rate = bad;
    EXPECT_THROW(simulate_stream_transfer(LinkProfile::fddi(), cfg), std::invalid_argument)
        << "loss_rate " << bad;
  }
}

TEST(ValidateLossConfigTest, SharedValidatorCoversTheWholeDomain) {
  // The one validator every simulation entry point funnels through.
  EXPECT_NO_THROW(validate_loss_config(0.0, 0));
  EXPECT_NO_THROW(validate_loss_config(0.0, kMillisecond));
  EXPECT_NO_THROW(validate_loss_config(0.5, kMillisecond));
  EXPECT_THROW(validate_loss_config(-0.1, kMillisecond), std::invalid_argument);
  EXPECT_THROW(validate_loss_config(1.0, kMillisecond), std::invalid_argument);
  EXPECT_THROW(validate_loss_config(2.0, kMillisecond), std::invalid_argument);
  // NaN is not >= 0: rejected, not silently treated as "no loss".
  EXPECT_THROW(validate_loss_config(std::nan(""), kMillisecond), std::invalid_argument);
  // Loss needs a timer (and a positive one) to make progress.
  EXPECT_THROW(validate_loss_config(0.1, 0), std::invalid_argument);
  EXPECT_THROW(validate_loss_config(0.1, -kMillisecond), std::invalid_argument);
}

TEST(SimNetworkLossTest, RateValidated) {
  VirtualClock clock;
  SimNetwork net(LinkProfile::fddi(), clock);
  EXPECT_THROW(net.set_loss(-0.1), std::invalid_argument);
  EXPECT_THROW(net.set_loss(1.0), std::invalid_argument);
  net.set_loss(0.5, 3);  // ok
}

}  // namespace
}  // namespace lmb::netsim
