// Bit-exactness golden test for the scheduler rebuild.
//
// One full page-load trial per Table 1 protocol on two seed-fixed sites
// (one small, one large/lossy), with every visual metric recorded as an
// exact nanosecond count and the trace counters that summarize transport
// behaviour; plus TCP, QUIC and QUIC+BBR on the lossy DA2GC and MSS
// networks, and TCP and QUIC page loads against Cubic and BBR cross traffic
// on a shared bottleneck. The expected values were captured from the pre-slab
// scheduler; the zero-allocation event store must reproduce them bit for
// bit — same FIFO tie-breaks, same RNG draw order, same packet schedule.
//
// If a deliberate behaviour change invalidates these rows, re-capture them
// with the snippet in EXPERIMENTS.md ("Benchmarking qperc") and say so in
// the commit message, and bump runner::kModelVersion
// (src/runner/checked_file.hpp) so stores and caches written by the old
// model stop loading; an unexplained diff here is a determinism bug.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/trial.hpp"
#include "core/trial_context.hpp"
#include "net/contention.hpp"
#include "net/profile.hpp"
#include "stats/stats.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"
#include "web/website.hpp"

namespace {

using namespace qperc;

/// Folds every trace event into TrialCounters, nothing else.
class CountersSink final : public trace::TraceSink {
 public:
  void on_event(const trace::Event& event) override { counters_.observe(event); }
  [[nodiscard]] const trace::TrialCounters& counters() const { return counters_; }

 private:
  trace::TrialCounters counters_;
};

struct GoldenRow {
  const char* site;
  const char* protocol;
  // PageMetrics, exact nanosecond counts.
  std::int64_t fvc_ns;
  std::int64_t si_ns;
  std::int64_t vc85_ns;
  std::int64_t lvc_ns;
  std::int64_t plt_ns;
  // TrialCounters.
  std::uint64_t packets_sent;
  std::uint64_t retransmissions;
  std::uint64_t timeouts;
  std::uint64_t acks_sent;
  std::uint64_t max_cwnd_bytes;
  std::uint64_t queue_drops;
  std::uint64_t random_loss_drops;
  std::uint64_t handshakes_completed;
  std::uint64_t connections_opened;
};

// Captured on the LTE profile, catalog seed 7, trial seed 12345.
//
// Re-captured after the variable-rate-link PR's deliberate transport fixes:
// the pacer no longer retroactively accrues credit at a new rate (shifts
// every BBR row a little), spurious RTO/PTO detection undoes needless
// cwnd collapses on the lossy site (fewer timeouts and retransmissions on
// the Cubic rows), and BBRv1 now carries Linux's long-term (policer)
// bandwidth sampler, whose known false-positive on bursty queue-drop loss
// slows TCP+BBR on nytimes — faithful to tcp_bbr v1, and the cost the
// policed cells buy their >= 80%-of-policed-rate goodput with.
constexpr GoldenRow kGolden[] = {
    {"apache.org", "TCP", 647300561, 663078063, 653075796, 1354227624, 1354227624, 167, 0, 0, 77,
     105629, 0, 0, 3, 3},
    {"apache.org", "TCP+", 568486088, 586947742, 573441514, 1354184958, 1354184958, 167, 0, 0, 76,
     137749, 0, 0, 3, 3},
    {"apache.org", "TCP+BBR", 601156617, 618839382, 609446815, 1371059280, 1371059280, 165, 0, 0,
     75, 96533, 0, 0, 3, 3},
    {"apache.org", "QUIC", 392869146, 424490515, 439909347, 1286233534, 1286233534, 177, 0, 0, 87,
     135180, 0, 0, 3, 3},
    {"apache.org", "QUIC+BBR", 429186304, 459388800, 480432351, 1293224081, 1293224081, 177, 0, 0,
     87, 96088, 0, 0, 3, 3},
    {"nytimes.com", "TCP", 2964583528, 3086667951, 3053478719, 4296365025, 4296365025, 3673, 255,
     3, 2091, 328156, 234, 0, 29, 29},
    {"nytimes.com", "TCP+", 2921365239, 3025390858, 2921365239, 4420944486, 4420944486, 3963, 568,
     8, 2415, 496481, 578, 0, 29, 29},
    {"nytimes.com", "TCP+BBR", 5952531146, 5953344052, 5952531146, 6038957328, 6038957328, 3825,
     418, 9, 2331, 307051, 417, 0, 29, 29},
    {"nytimes.com", "QUIC", 2846597462, 3027862230, 3289862382, 5289519703, 5289519703, 4539, 836,
     0, 1850, 422890, 848, 0, 29, 29},
    {"nytimes.com", "QUIC+BBR", 1637119933, 1965359884, 2234268644, 4525116505, 4525116505, 4526,
     803, 2, 1883, 441349, 805, 0, 29, 29},
};

// The lossy in-flight networks, captured with catalog seed 7 and trial seed
// 12345 like the LTE rows. DA2GC and MSS are where QUIC's 256 ACK ranges fill
// up, so these rows pin the sender's ACK-range walk (newest range first,
// packet numbers ascending within a range) and its spurious-loss undo; they
// were captured once tracing could no longer perturb the link schedule, so
// the traced run below equals the untraced one.
struct LossyGoldenRow {
  net::NetworkKind network;
  GoldenRow row;
};

constexpr LossyGoldenRow kLossyGolden[] = {
    {net::NetworkKind::kDa2gc, {"apache.org", "TCP", 4553931715, 4897694763, 5713829119, 7236420289, 7236420289, 226, 58, 2, 138, 23558, 52, 14, 3, 3}},
    {net::NetworkKind::kDa2gc, {"apache.org", "QUIC", 4170833634, 4438627086, 4859602858, 5991171547, 5991171547, 343, 164, 0, 103, 53936, 155, 11, 3, 3}},
    {net::NetworkKind::kDa2gc, {"apache.org", "QUIC+BBR", 4701739611, 5114320433, 4725978927, 10054780322, 10054780322, 302, 123, 2, 109, 38460, 115, 13, 3, 3}},
    {net::NetworkKind::kDa2gc, {"nytimes.com", "TCP", 53333188095, 59880517947, 69050340402, 149187270239, 149187270239, 4717, 1345, 54, 2708, 28518, 1329, 235, 29, 29}},
    {net::NetworkKind::kDa2gc, {"nytimes.com", "QUIC", 46317986332, 52812682254, 61022750078, 108090228443, 108090228443, 6760, 3032, 67, 2970, 13500000, 2932, 254, 29, 29}},
    {net::NetworkKind::kDa2gc, {"nytimes.com", "QUIC+BBR", 55599172981, 61191137188, 75789594579, 110049184379, 110049184379, 5626, 1911, 76, 3472, 44547, 1823, 266, 29, 29}},
    {net::NetworkKind::kMss, {"apache.org", "TCP", 27934640495, 27934887352, 27934640495, 27937726209, 27937726209, 181, 13, 3, 118, 54020, 0, 22, 3, 3}},
    {net::NetworkKind::kMss, {"apache.org", "QUIC", 6465436564, 7043626021, 7932924577, 8821841480, 9611933542, 202, 24, 0, 108, 71472, 8, 22, 3, 3}},
    {net::NetworkKind::kMss, {"apache.org", "QUIC+BBR", 5696060903, 6408231043, 8417686515, 8417686515, 8417686515, 205, 28, 0, 102, 61892, 14, 20, 3, 3}},
    {net::NetworkKind::kMss, {"nytimes.com", "TCP", 39706580016, 43356390148, 48140189156, 84637331955, 84637331955, 3812, 385, 19, 2830, 74971, 154, 417, 29, 29}},
    {net::NetworkKind::kMss, {"nytimes.com", "QUIC", 38937729987, 44541008471, 44212335652, 116956331715, 116956331715, 4524, 794, 1, 2643, 1770279, 546, 422, 29, 29}},
    {net::NetworkKind::kMss, {"nytimes.com", "QUIC+BBR", 33847535011, 34512886433, 33847535011, 45414381752, 45414381752, 5623, 1927, 10, 2575, 347937, 1720, 413, 29, 29}},
};

// Contended trials: the page load shares the bottleneck with cross-traffic
// flows, captured with catalog seed 7 and trial seed 12345 like the rows
// above. Sixteen Cubic flows on DSL and four BBR flows on LTE keep the
// cross-traffic TCP senders in SACK recovery for the whole trial, so these
// rows pin the TCP scoreboard and the QUIC receiver's ACK ranges under
// contention bit for bit; the last row adds a 6 Mbit/s / 64 KiB policer.
struct ContendedGoldenRow {
  net::NetworkKind network;
  std::uint32_t flows;
  net::CrossMix mix;
  bool policed;
  GoldenRow row;
  // ContentionOutcome: per-flow goodput (the first `flows` entries), their
  // Jain index, and the bottleneck queue's peak and drops.
  std::array<double, 16> goodput_bps;
  double jain_index;
  std::uint64_t peak_queue_bytes;
  std::uint64_t queue_drops;
};

constexpr ContendedGoldenRow kContendedGolden[] = {
    {net::NetworkKind::kDsl, 16, net::CrossMix::kCubic, false,
     {"apache.org", "TCP", 3947760958, 3963854337, 3947760958, 4158968958, 4158968958, 10514, 1941, 11, 6198, 80300, 1959, 0, 19, 3},
     {1747390.4761904762, 1436548.5714285714, 1601561.9047619046, 1568190.4761904762, 1659649.5238095238, 1236632.3809523808, 1317592.3809523808, 1584876.1904761903, 1612685.7142857143, 1323466.6666666665, 1445828.5714285714, 1634933.3333333333, 1262285.7142857143, 1259192.3809523808, 1456640, 909104.76190476189},
     0.97964283328232404, 37492, 1959},
    {net::NetworkKind::kLte, 4, net::CrossMix::kBbr, false,
     {"apache.org", "TCP", 1500188808, 1535515891, 1637892353, 1796133792, 1796133792, 1476, 13, 1, 693, 103373, 10, 0, 7, 3},
     {2627377.7777777775, 1783093.3333333333, 1561742.2222222222, 1608622.2222222222},
     0.95089275749597169, 262404, 10},
    {net::NetworkKind::kDsl, 16, net::CrossMix::kCubic, false,
     {"apache.org", "QUIC", 934775199, 986464081, 979963999, 3080279199, 3080279199, 7984, 1466, 9, 4799, 83220, 1482, 0, 19, 3},
     {2414720, 2517740, 1507100, 1645800, 1766250, 1280800, 1141690, 1448700, 977850, 1339200, 1408550, 1492500, 1039900, 1546840, 1109250, 10600},
     0.86691449782713104, 37488, 1482},
    {net::NetworkKind::kLte, 4, net::CrossMix::kBbr, false,
     {"apache.org", "QUIC", 458373973, 514695751, 577010866, 1725747782, 1725747782, 1487, 7, 0, 759, 134229, 6, 0, 7, 3},
     {1939555.5555555555, 1803288.8888888888, 1952533.3333333333, 1991466.6666666665},
     0.99863723483504518, 262076, 6},
    {net::NetworkKind::kDsl, 16, net::CrossMix::kCubic, false,
     {"nytimes.com", "TCP", 7306201919, 17569001763, 38193169598, 90535389438, 90535389438, 206580, 19817, 338, 129026, 80300, 19839, 0, 45, 29},
     {1488335.1876379692, 1542351.9646799117, 1434977.4834437086, 1519791.2582781457, 1449530.7726269315, 1479181.9867549669, 1442827.0198675497, 1450963.3554083887, 1486415.8940397352, 1413190.2869757176, 1421441.0596026492, 1484611.037527594, 1569052.5386313468, 1541077.2626931567, 1425308.6092715233, 1470157.7041942605},
     0.99904886268709636, 37499, 19839},
    {net::NetworkKind::kLte, 4, net::CrossMix::kBbr, false,
     {"nytimes.com", "TCP", 4410948749, 4713206290, 5008828045, 8363220150, 8363220150, 8159, 946, 9, 4546, 202807, 944, 0, 33, 29},
     {1583619.0476190476, 1209580.9523809524, 1145619.0476190476, 1225954.2857142857},
     0.98266792622289889, 262480, 944},
    {net::NetworkKind::kDsl, 16, net::CrossMix::kCubic, false,
     {"nytimes.com", "QUIC", 3999794629, 4472935310, 4251403909, 10583514309, 10583514309, 26102, 3972, 21, 14917, 96360, 3998, 0, 45, 29},
     {1409083.7735849058, 1496987.1698113207, 1271471.6981132077, 1198747.1698113207, 1174505.6603773586, 817494.33962264156, 1338686.7924528301, 1316649.0566037737, 1252739.6226415094, 1172301.8867924528, 1346400, 1329871.6981132077, 1434550.9433962265, 1123818.8679245284, 1303426.4150943398, 1175607.5471698113},
     0.98553532327219928, 37489, 3998},
    {net::NetworkKind::kLte, 4, net::CrossMix::kBbr, false,
     {"nytimes.com", "QUIC", 2664783500, 3135210375, 4494379611, 7693958984, 7693958984, 7575, 554, 0, 3644, 174966, 562, 0, 33, 29},
     {1091318.9743589745, 1169353.8461538462, 1241230.7692307692, 1334071.794871795},
     0.99453926000542237, 262498, 562},
    {net::NetworkKind::kDsl, 4, net::CrossMix::kCubic, true,
     {"apache.org", "TCP", 2263387929, 2265386577, 2263387929, 2289618009, 2289618009, 2397, 1183, 8, 986, 67160, 44, 0, 7, 3},
     {1551453.3333333335, 1371386.6666666667, 1191866.6666666667, 880400},
     0.9621204860391922, 36638, 44},
};

const web::Website& golden_site(const char* name) {
  static const auto catalog = web::study_catalog(7);
  for (const auto& candidate : catalog) {
    if (candidate.name == name) return candidate;
  }
  ADD_FAILURE() << "no catalog site " << name;
  return catalog.front();
}

void expect_row(const GoldenRow& row, const browser::PageLoadResult& result,
                const trace::TrialCounters& counters, const std::string& label) {
  EXPECT_TRUE(result.metrics.finished) << label;
  EXPECT_EQ(result.metrics.first_visual_change.count(), row.fvc_ns) << label;
  EXPECT_EQ(result.metrics.speed_index.count(), row.si_ns) << label;
  EXPECT_EQ(result.metrics.visual_complete_85.count(), row.vc85_ns) << label;
  EXPECT_EQ(result.metrics.last_visual_change.count(), row.lvc_ns) << label;
  EXPECT_EQ(result.metrics.page_load_time.count(), row.plt_ns) << label;

  EXPECT_EQ(counters.packets_sent, row.packets_sent) << label;
  EXPECT_EQ(counters.retransmissions, row.retransmissions) << label;
  EXPECT_EQ(counters.timeouts, row.timeouts) << label;
  EXPECT_EQ(counters.acks_sent, row.acks_sent) << label;
  EXPECT_EQ(counters.max_cwnd_bytes, row.max_cwnd_bytes) << label;
  EXPECT_EQ(counters.queue_drops, row.queue_drops) << label;
  EXPECT_EQ(counters.random_loss_drops, row.random_loss_drops) << label;
  EXPECT_EQ(counters.handshakes_completed, row.handshakes_completed) << label;
  EXPECT_EQ(counters.connections_opened, row.connections_opened) << label;
}

void expect_golden(const GoldenRow& row, const net::NetworkProfile& profile) {
  const auto& protocol = core::protocol_by_name(row.protocol);
  CountersSink sink;
  const auto result = core::run_trial(
      core::TrialSpec(golden_site(row.site), protocol, profile, /*seed=*/12345)
          .with_trace(&sink));
  expect_row(row, result, sink.counters(),
             std::string(row.site) + " / " + row.protocol + " / " +
                 std::string(net::to_string(profile.kind)));
}

TEST(Golden, TrialsAreBitExactPerTable1Protocol) {
  const net::NetworkProfile profile = net::lte_profile();
  for (const GoldenRow& row : kGolden) expect_golden(row, profile);
}

TEST(Golden, LossyNetworkTrialsAreBitExact) {
  for (const LossyGoldenRow& lossy : kLossyGolden) {
    expect_golden(lossy.row, net::profile_for(lossy.network));
  }
}

TEST(Golden, ContendedTrialsAreBitExact) {
  core::TrialContext context;
  for (const ContendedGoldenRow& contended : kContendedGolden) {
    const GoldenRow& row = contended.row;
    net::NetworkProfile profile = net::profile_for(contended.network);
    if (contended.policed) {
      net::LinkConditions{.policer_rate = DataRate::megabits_per_second(6.0),
                          .policer_burst_bytes = 64 * 1024}
          .apply(profile);
    }
    net::ContentionConfig config;
    config.flows = contended.flows;
    config.mix = contended.mix;
    CountersSink sink;
    core::ContentionOutcome outcome;
    const auto result = context.run(
        core::TrialSpec(golden_site(row.site), core::protocol_by_name(row.protocol), profile,
                        /*seed=*/12345)
            .with_contention(config)
            .with_trace(&sink),
        &outcome);
    const std::string label = std::string(row.site) + " / " + row.protocol + " / " +
                              std::string(net::to_string(contended.network)) + " / " +
                              std::to_string(contended.flows) + " " +
                              std::string(net::to_string(contended.mix)) +
                              (contended.policed ? " / policed" : "");
    expect_row(row, result, sink.counters(), label);

    ASSERT_EQ(outcome.flows.size(), contended.flows) << label;
    std::vector<double> goodputs;
    for (std::uint32_t i = 0; i < contended.flows; ++i) {
      EXPECT_EQ(outcome.flows[i].goodput_bps, contended.goodput_bps[i]) << label << " flow " << i;
      goodputs.push_back(outcome.flows[i].goodput_bps);
    }
    EXPECT_EQ(stats::jain_fairness_index(goodputs), contended.jain_index) << label;
    EXPECT_EQ(outcome.peak_queue_bytes, contended.peak_queue_bytes) << label;
    EXPECT_EQ(outcome.queue_drops, contended.queue_drops) << label;
  }
}

TEST(Golden, RerunIsIdenticalToItself) {
  // Sanity guard for the golden rows above: two runs in one process (warm
  // statics, different heap state) must agree with each other exactly.
  const auto catalog = web::study_catalog(7);
  const web::Website* site = nullptr;
  for (const auto& candidate : catalog) {
    if (candidate.name == std::string("apache.org")) site = &candidate;
  }
  ASSERT_NE(site, nullptr);
  const auto& protocol = core::protocol_by_name("QUIC");
  const net::NetworkProfile profile = net::lte_profile();
  const auto a = core::run_trial(core::TrialSpec(*site, protocol, profile, 999));
  const auto b = core::run_trial(core::TrialSpec(*site, protocol, profile, 999));
  EXPECT_EQ(a.metrics.speed_index, b.metrics.speed_index);
  EXPECT_EQ(a.metrics.page_load_time, b.metrics.page_load_time);
  EXPECT_EQ(a.transport.retransmissions, b.transport.retransmissions);
  EXPECT_EQ(a.connections_opened, b.connections_opened);
}

}  // namespace
