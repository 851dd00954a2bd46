// enforce_pipeline — what does wire-level enforcement cost per click, and
// does the tier machine separate the scenarios it was built for?
//
// Three synthetic streams (the enforcement scenarios of stream/generators):
//   coordinated-botnet   32 bots ramping to 60% of traffic, fixed identities
//   low-and-slow         4 sources at ~45% per-source duplicate rate
//   nat-flash-crowd      thousands of real users behind one IP
//
// For each, clicks and exact duplicate verdicts are precomputed, then two
// arms run INTERLEAVED (A/B per repetition, so thermal/clock drift hits
// both equally):
//   no-enforcement   consume the verdict stream (the floor: what the
//                    detector pipeline already paid for)
//   enforcement      the EnforcingSink's per-click ledger work on top —
//                    decide() before the click, observe() after, rejected
//                    clicks skipping observe exactly as the sink does
//
// The table reports ns/click per arm (median of the reps), the overhead
// delta between the two medians, and the end-state tier populations — the
// scenario-separation result (botnet blocked, low-and-slow discounted, NAT
// clean/flagged) the enforce_test asserts is reproduced here at bench
// scale.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "enforce/reputation_ledger.hpp"
#include "stream/click.hpp"
#include "stream/generators.hpp"

using namespace ppc;

namespace {

struct Scenario {
  std::string name;
  std::vector<std::uint32_t> ips;
  std::vector<std::uint64_t> times;
  std::vector<bool> dups;  ///< exact-oracle duplicate verdicts
};

Scenario materialize(const std::string& name, stream::ClickGenerator& gen,
                     std::size_t clicks) {
  Scenario s;
  s.name = name;
  s.ips.reserve(clicks);
  s.times.reserve(clicks);
  s.dups.reserve(clicks);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(clicks);
  for (std::size_t i = 0; i < clicks; ++i) {
    const stream::Click c = gen.next();
    s.ips.push_back(c.source_ip);
    s.times.push_back(c.time_us);
    s.dups.push_back(!seen.insert(stream::click_identifier(
                              c, stream::IdentifierPolicy::kIpCookieAndAd))
                          .second);
  }
  return s;
}

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The floor arm: consume the verdict stream. The accumulated count is
/// returned so the compiler cannot drop the loop.
std::uint64_t run_baseline(const Scenario& s) {
  std::uint64_t dups = 0;
  for (std::size_t i = 0; i < s.ips.size(); ++i) dups += s.dups[i] ? 1 : 0;
  return dups;
}

struct EnforceResult {
  std::uint64_t rejected = 0;
  enforce::ReputationLedger::Stats stats;
};

/// The enforcement arm: the EnforcingSink's per-click ledger protocol.
EnforceResult run_enforced(const Scenario& s,
                           const enforce::EnforcementPolicy& policy) {
  enforce::ReputationLedger ledger(policy);
  EnforceResult r;
  for (std::size_t i = 0; i < s.ips.size(); ++i) {
    if (ledger.decide(s.ips[i], 0, s.times[i]) == enforce::Tier::kBlocked) {
      ++r.rejected;  // rejected at the wire: no observe, as in the sink
      continue;
    }
    ledger.observe(s.ips[i], 0, s.dups[i], s.times[i]);
  }
  r.stats = ledger.stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  // Paper-scale: 2^20 clicks per scenario; default quick run 2^16.
  const std::size_t clicks = args.scaled(std::uint64_t{1} << 20);
  const int reps = 5;

  // Thresholds scaled like enforce_test's: reachable within the run while
  // keeping the defaults' shape (strictly increasing rates and evidence).
  enforce::EnforcementPolicy policy;
  policy.flag_rate = 0.20;
  policy.discount_rate = 0.35;
  policy.block_rate = 0.55;
  policy.flag_min_duplicates = 16;
  policy.discount_min_duplicates = 64;
  policy.block_min_duplicates = 256;
  policy.blatant_rate = 0.90;
  policy.blatant_min_duplicates = 64;
  policy.rate_alpha = 1.0 / 64;
  policy.min_clicks = 32;
  policy.score_half_life_us = 30'000'000;
  policy.block_ttl_us = 60'000'000;

  std::vector<Scenario> scenarios;
  {
    stream::MixedTrafficStream::Options bg;
    bg.seed = 101;
    bg.user_count = 200'000;
    stream::CoordinatedBotnetStream::Options bo;
    bo.seed = 20260808;
    stream::CoordinatedBotnetStream botnet(
        std::make_unique<stream::MixedTrafficStream>(bg), bo);
    scenarios.push_back(materialize("coordinated-botnet", botnet, clicks));

    bg.seed = 102;
    stream::LowAndSlowFraudStream::Options lo;
    lo.seed = 20260808;
    stream::LowAndSlowFraudStream low(
        std::make_unique<stream::MixedTrafficStream>(bg), lo);
    scenarios.push_back(materialize("low-and-slow", low, clicks));

    stream::NatFlashCrowdStream::Options no;
    no.seed = 20260808;
    no.crowd_size = static_cast<std::uint32_t>(clicks * 2);  // never exhaust
    stream::NatFlashCrowdStream nat(no);
    scenarios.push_back(materialize("nat-flash-crowd", nat, clicks));
  }

  benchutil::JsonSeriesWriter json("enforce_pipeline", args.json);
  json.set_meta("cpu", benchutil::cpu_model_string());
  json.set_meta("hw_threads",
                static_cast<double>(std::thread::hardware_concurrency()));
  json.set_meta("clicks_per_scenario", static_cast<double>(clicks));
  json.set_meta("reps", reps);
  json.set_meta("statistic", "median");

  std::printf("enforce_pipeline: %zu clicks/scenario, %d interleaved reps\n\n",
              clicks, reps);
  benchutil::print_header({"scenario", "base ns/clk", "enf ns/clk",
                           "overhead ns", "rejected", "blocked", "discounted",
                           "flagged"},
                          14);

  for (const Scenario& s : scenarios) {
    const double n = static_cast<double>(s.ips.size());
    std::vector<double> base_ns, enf_ns;
    std::uint64_t sink = 0;
    EnforceResult result;
    for (int rep = 0; rep < reps; ++rep) {
      // Interleave the arms inside each repetition.
      const double t0 = now_ns();
      sink += run_baseline(s);
      const double t1 = now_ns();
      result = run_enforced(s, policy);
      const double t2 = now_ns();
      base_ns.push_back((t1 - t0) / n);
      enf_ns.push_back((t2 - t1) / n);
    }
    const double base = benchutil::summarize(base_ns).median;
    const double enf = benchutil::summarize(enf_ns).median;
    if (sink == 0xdead) std::printf(" ");  // keep the baseline loop alive

    const auto& st = result.stats;
    std::printf("%13s ", s.name.c_str());
    benchutil::print_row({base, enf, enf - base,
                          static_cast<double>(result.rejected),
                          static_cast<double>(st.blocked),
                          static_cast<double>(st.discounted),
                          static_cast<double>(st.flagged)},
                         14);
    // The separation rows are the contract: botnet ends blocked,
    // low-and-slow ends discounted-or-worse, the NAT crowd ends unblocked.
    json.add(s.name, {{"ns_per_click_baseline", base},
                      {"ns_per_click_enforced", enf},
                      {"ns_overhead", enf - base},
                      {"rejected", static_cast<double>(result.rejected)},
                      {"sources", static_cast<double>(st.sources)},
                      {"blocked", static_cast<double>(st.blocked)},
                      {"discounted", static_cast<double>(st.discounted)},
                      {"flagged", static_cast<double>(st.flagged)},
                      {"promotions", static_cast<double>(st.promotions)},
                      {"demotions", static_cast<double>(st.demotions)}});
  }
  return 0;
}
