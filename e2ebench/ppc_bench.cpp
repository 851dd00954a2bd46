// ppc_bench — end-to-end benchmark of the ppcd click-fraud daemon.
//
//   ppc_bench --workload=NAME|all --seed=N --seconds=S --trace=0|1
//             --ppcd=PATH [--workdir=DIR] [--oracle-hashes=K]
//
// Untraced (--trace=0): spawns ppcd (and, for enforce_replicated, a
// --follow standby), drives it over loopback TCP with the workload's
// seeded generator — warm-up, then S seconds of half-second segments
// alternating closed loop and open loop at the workload's nominal rate —
// and prints the end-to-end metrics.
// Traced (--trace=1): hosts the same server stack in process with timing
// decorators at each layer boundary and prints the per-layer metrics.
// Either way the run is checked: verdicts bit-identical to an in-process
// oracle (pool and tiered workloads), DRAIN_ACK totals equal to the
// client's counts, identical primary and follower drain snapshots
// (enforce_replicated; a difference only in the order of tied offender
// entries is the known SpaceSaving::restore defect, printed as a KNOWN
// FAILURE line without failing the run), and zero false negatives on
// planted replays.
//
// The last line of stdout is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value":
//    V, "unit": U}, ...}}
// Exit status: 0 correct, 1 a correctness check failed, 2 the run could not
// be carried out (no JSON is printed then).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "core/snapshot_io.hpp"
#include "daemon.hpp"
#include "server/ingest_server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

namespace wire = ppc::server::wire;

ClientSet::ClientSet(const Workload& w, std::uint64_t seed) {
  for (std::uint32_t c = 0; c < w.connections; ++c) {
    traffic.push_back(make_traffic(w, seed, c));
    clients.push_back(std::make_unique<Client>(w, *traffic.back(), c));
  }
}

void connect_clients(const Workload& w, std::uint16_t port, Clients& clients) {
  std::vector<std::uint32_t> used;
  for (auto& c : clients) {
    std::uint32_t loop = c->connect(port);
    for (int retry = 0; w.loops > 1 && retry < 64 &&
                        std::find(used.begin(), used.end(), loop) != used.end();
         ++retry) {
      loop = c->connect(port);
    }
    used.push_back(loop);
  }
}

PhasePlan drive(Clients& clients, double seconds, const Hooks& hooks,
                const std::vector<int>& client_cpus) {
  // About half a second per segment, an even count, closed loop first.
  PhasePlan plan;
  plan.count = std::max<std::size_t>(2, 2 * static_cast<std::size_t>(seconds));
  const auto segment_ns =
      static_cast<std::uint64_t>(seconds * 1e9 / static_cast<double>(plan.count));
  std::function<void()> on_phase = [&] {
    if (plan.segments.size() == plan.count) return;  // after the last one
    const bool open = plan.segments.size() % 2 == 1;
    // Open-loop schedules start a millisecond out, once every client is
    // past the barrier.
    const std::uint64_t start = now_ns() + (open ? 1'000'000 : 0);
    plan.segments.push_back({open, start, start + segment_ns});
  };
  Client::Sync sync(static_cast<std::ptrdiff_t>(clients.size() + 1),
                    PhaseStep{&on_phase});
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    std::vector<int> cpu;
    if (!client_cpus.empty()) cpu.push_back(client_cpus[i % client_cpus.size()]);
    threads.emplace_back([&sync, &plan, cpu, client = clients[i].get()] {
      pin_current_thread(cpu);
      client->run(sync, plan);
    });
  }
  sync.arrive_and_wait();  // warm-up done
  for (std::size_t k = 0; k < plan.count; ++k) {
    const Segment segment = plan.segments[k];
    if (hooks.begin) hooks.begin(k, segment);
    sync.arrive_and_wait();
    if (hooks.end) hooks.end(k, segment);
  }
  for (auto& t : threads) t.join();
  return plan;
}

namespace {

void append_bits(std::vector<std::uint8_t>& bits, const char* verdicts,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint8_t b = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      if (verdicts[i + j] != 0) b |= static_cast<std::uint8_t>(1u << j);
    }
    bits.push_back(b);
  }
}

bool bit(const std::vector<std::uint8_t>& bits, std::uint64_t i) {
  return ((bits[i / 8] >> (i % 8)) & 1u) != 0;
}

/// Regenerates one connection's stream, replays the clicks of the ads in
/// its share (ad % parts == part) through an oracle built like the daemon's
/// sink (enforce_replicated has none) and scores their wire verdicts
/// against the generator's labels.
Quality verify_part(const Workload& w, const Options& o, std::uint32_t conn,
                    const ClientStats& s, std::uint32_t part,
                    std::uint32_t parts) {
  Quality q;
  const std::uint64_t total = s.verdicts.size() * 8;
  auto traffic = make_traffic(w, o.seed, conn);
  std::unique_ptr<adnet::DetectorPool> pool;
  std::unique_ptr<adnet::TieredDetectorPool> tiered;
  if (w.kind == Kind::kPool) {
    server::DetectorConfig cfg = w.detector;
    if (o.oracle_hashes != 0) cfg.hashes = o.oracle_hashes;
    pool = std::make_unique<adnet::DetectorPool>(
        [cfg](std::uint32_t) { return server::build_detector(cfg); });
  } else if (w.kind == Kind::kTiered) {
    tiered = server::build_tiered_pool(w.tiered);
  }
  constexpr std::size_t kChunk = 4096;
  Columns cols, mine;
  cols.resize(kChunk);
  mine.resize(kChunk);
  std::vector<Label> labels(kChunk);
  std::vector<std::size_t> pick;
  std::vector<char> expect(kChunk);
  for (std::uint64_t off = 0; off < total; off += kChunk) {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, total - off));
    traffic->fill(n, cols, labels.data());
    pick.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (cols.ads[i] % parts == part) pick.push_back(i);
    }
    const std::size_t m = pick.size();
    for (std::size_t j = 0; j < m; ++j) {
      mine.ads[j] = cols.ads[pick[j]];
      mine.ids[j] = cols.ids[pick[j]];
      mine.times[j] = cols.times[pick[j]];
    }
    const std::span<bool> out(reinterpret_cast<bool*>(expect.data()), m);
    if (pool) {
      pool->offer_batch({mine.ads.data(), m}, {mine.ids.data(), m},
                        {mine.times.data(), m}, out);
    } else if (tiered) {
      tiered->offer_batch({mine.ads.data(), m}, {mine.ids.data(), m},
                          {mine.times.data(), m}, out);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t idx = off + pick[j];
      const bool got = bit(s.verdicts, idx);
      if ((pool || tiered) && got != (expect[j] != 0)) ++q.mismatches;
      const Label& l = labels[pick[j]];
      if (l.original >= 0 && !got &&
          !bit(s.verdicts, static_cast<std::uint64_t>(l.original))) {
        ++q.false_negatives;
      }
      if (idx < s.measured_from) continue;
      if (l.attacker) {
        ++q.attacker;
        q.attacker_paid += got ? 0 : 1;
      } else if (l.original < 0) {
        ++q.fresh;
        q.false_positives += got ? 1 : 0;
      }
    }
  }
  return q;
}

}  // namespace

void build_restore_snapshot(const Workload& w, Traffic& traffic,
                            ClientStats& stats, const std::string& path) {
  SinkStack stack = build_stack(w);
  Columns cols;
  cols.resize(w.batch);
  std::vector<char> out(w.batch);
  for (std::uint64_t done = 0; done < w.restore_clicks; done += w.batch) {
    traffic.fill(w.batch, cols, nullptr);
    std::fill(out.begin(), out.end(), char{0});
    stack.top->offer_with_sources(cols.ads, cols.ids, cols.times, cols.sources,
                                  {reinterpret_cast<bool*>(out.data()), out.size()});
    append_bits(stats.verdicts, out.data(), out.size());
  }
  server::IngestServer::save_sink_snapshot(*stack.top, path);
}

Quality check_clients(const Workload& w, const Options& o, Clients& clients,
                      RunOutput& out) {
  Quality total;
  // Per-ad detectors are independent, so a pool oracle splits by ad over
  // the spare CPUs; the tiered pool is one state machine.
  const auto parts = static_cast<std::uint32_t>(
      w.kind == Kind::kPool ? std::max<std::size_t>(1, allowed_cpus().size() / clients.size())
                            : 1);
  std::vector<Quality> per(clients.size() * parts);
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < clients.size(); ++c) {
    const ClientStats& s = clients[c]->stats();
    out.attempted += s.batches;
    out.failed += s.late;
    if (!s.error.empty()) {
      out.problems.push_back(s.error);
      continue;
    }
    if (s.ack_clicks != s.clicks || s.ack_duplicates != s.duplicates) {
      out.problems.push_back(
          "connection " + std::to_string(c) + ": DRAIN_ACK says " +
          std::to_string(s.ack_clicks) + " clicks / " +
          std::to_string(s.ack_duplicates) + " duplicates, client counted " +
          std::to_string(s.clicks) + " / " + std::to_string(s.duplicates));
    }
    for (std::uint32_t p = 0; p < parts; ++p) {
      threads.emplace_back([&, c, p] {
        per[c * parts + p] = verify_part(w, o, c, clients[c]->stats(), p, parts);
      });
    }
  }
  for (auto& t : threads) t.join();
  for (const Quality& q : per) {
    total.fresh += q.fresh;
    total.false_positives += q.false_positives;
    total.attacker += q.attacker;
    total.attacker_paid += q.attacker_paid;
    total.false_negatives += q.false_negatives;
    total.mismatches += q.mismatches;
  }
  if (total.mismatches != 0) {
    out.problems.push_back(std::to_string(total.mismatches) +
                           " wire verdicts differ from the in-process oracle");
  }
  if (total.false_negatives != 0) {
    out.problems.push_back(std::to_string(total.false_negatives) +
                           " planted replays within half the window got false");
  }
  return total;
}

namespace {

std::uint64_t u64_at(const std::string& s, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, s.data() + pos, sizeof(v));
  return v;
}

/// Where the enforcement ledger section and its offender summary sit in a
/// sink state. EnforcingSink saves the ledger last, and the ledger its
/// offender summary last, so both end where the state ends:
///   ledger section   u64 kEnforceMagic, version, payload bytes, CRC, payload
///   offender summary u64 "PPCSSHH1", capacity, stream length, count, then
///                    count x {key, count, error} in ascending count order
struct LedgerTail {
  std::size_t section = 0;  ///< offset of the ledger section header
  std::size_t entries = 0;  ///< offset of the first offender entry
};

bool find_ledger_tail(const std::string& s, std::size_t capacity, LedgerTail& t) {
  constexpr std::uint64_t kSpaceSavingMagic = 0x50504353'53484831ULL;  // "PPCSSHH1"
  constexpr std::size_t kEntry = 24;
  bool found = false;
  for (std::size_t c = 0; c <= capacity && 32 + c * kEntry <= s.size(); ++c) {
    const std::size_t at = s.size() - 32 - c * kEntry;
    if (u64_at(s, at) == kSpaceSavingMagic && u64_at(s, at + 8) == capacity &&
        u64_at(s, at + 24) == c) {
      t.entries = at + 32;
      found = true;
      break;
    }
  }
  if (!found || t.entries < 64) return false;
  for (std::size_t at = t.entries - 64;; --at) {
    if (u64_at(s, at) == ppc::core::detail::kEnforceMagic &&
        u64_at(s, at + 16) == s.size() - at - 32) {
      t.section = at;
      return true;
    }
    if (at == 0) return false;
  }
}

/// Clears the ledger section's CRC and sorts each run of equal-count
/// offender entries by key, so only their order is lost. False if the
/// entries are not in ascending count order to begin with.
bool canonicalize(std::string& s, const LedgerTail& t) {
  std::memset(s.data() + t.section + 24, 0, 8);
  struct Entry {
    std::uint64_t key, count, error;
  };
  std::vector<Entry> e((s.size() - t.entries) / sizeof(Entry));
  std::memcpy(e.data(), s.data() + t.entries, e.size() * sizeof(Entry));
  const auto by_count = [](const Entry& x, const Entry& y) { return x.count < y.count; };
  if (!std::is_sorted(e.begin(), e.end(), by_count)) return false;
  std::sort(e.begin(), e.end(), [](const Entry& x, const Entry& y) {
    return std::tie(x.count, x.key, x.error) < std::tie(y.count, y.key, y.error);
  });
  std::memcpy(s.data() + t.entries, e.data(), e.size() * sizeof(Entry));
  return true;
}

/// A drain snapshot's sink state: the file without its envelope header.
std::string sink_state_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes;
  if (in) bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  if (!in || bytes.size() < 32 ||
      u64_at(bytes, 0) != ppc::core::detail::kServerSnapshotMagic) {
    throw std::runtime_error("cannot read the drain snapshot " + path);
  }
  return bytes.substr(32);
}

}  // namespace

StateMatch compare_sink_states(std::string a, std::string b,
                               std::size_t offender_capacity, std::size_t& moved) {
  moved = 0;
  if (a == b) return StateMatch::kIdentical;
  LedgerTail ta, tb;
  if (a.size() != b.size() || !find_ledger_tail(a, offender_capacity, ta) ||
      !find_ledger_tail(b, offender_capacity, tb) || ta.section != tb.section ||
      ta.entries != tb.entries) {
    return StateMatch::kDifferent;
  }
  for (std::size_t at = ta.entries; at < a.size(); at += 24) {
    moved += a.compare(at, 24, b, at, 24) != 0 ? 1 : 0;
  }
  return canonicalize(a, ta) && canonicalize(b, tb) && a == b ? StateMatch::kOffenderTieOrder
                                                              : StateMatch::kDifferent;
}

void check_follower_state(StateMatch m, std::size_t moved, RunOutput& out) {
  if (m == StateMatch::kDifferent) {
    out.problems.push_back("primary and follower sink states differ");
  } else if (m == StateMatch::kOffenderTieOrder) {
    std::printf("info KNOWN FAILURE: primary and follower states differ only in "
                "the order of %zu tied offender-summary entries "
                "(SpaceSaving::restore reverses equal counts)\n",
                moved);
  }
}

namespace {

RunOutput run_untraced(const Workload& w, const Options& o) {
  RunOutput out;
  ClientSet set(w, o.seed);
  std::vector<std::string> flags = daemon_flags(w);
  flags.push_back("--listen=127.0.0.1:0");
  const std::string stem = o.workdir + "/" + w.name;
  if (w.kind == Kind::kEnforce) {
    build_restore_snapshot(w, *set.traffic[0], set.clients[0]->stats(),
                           stem + "-base.snap");
    flags.push_back("--restore=" + stem + "-base.snap");
    flags.push_back("--replicate-listen=127.0.0.1:0");
    flags.push_back("--snapshot=" + stem + "-primary.snap");
  }

  // Clients and daemons on disjoint CPUs when there are enough, so the
  // scheduler never stacks a busy client thread on a busy event loop.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> client_cpus, daemon_cpus;
  if (cpus.size() >= w.connections + w.loops) {
    client_cpus.assign(cpus.begin(), cpus.begin() + w.connections);
    daemon_cpus.assign(cpus.begin() + w.connections, cpus.end());
  }

  // Set-up time: spawn → the port answers HELLO (restore included), nine
  // times; the last daemon serves the run.
  constexpr std::size_t kSetupReps = 9;
  std::vector<double> setup;
  std::unique_ptr<Daemon> primary;
  std::uint16_t port = 0;
  std::uint16_t repl_port = 0;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    auto d = std::make_unique<Daemon>(o.ppcd, flags, daemon_cpus);
    port = d->wait_port("ppcd: listening on", 60'000);
    {
      Conn probe;
      probe.connect(port);
      probe.handshake(wire::kProtocolVersion);
    }
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (w.kind == Kind::kEnforce) {
      repl_port = d->wait_port("ppcd: replicating on", 60'000);
    }
    if (r + 1 < kSetupReps) {
      d->kill();
    } else {
      primary = std::move(d);
    }
  }
  std::unique_ptr<Daemon> follower;
  if (w.kind == Kind::kEnforce) {
    std::vector<std::string> fflags = daemon_flags(w);
    fflags.push_back("--listen=127.0.0.1:0");
    fflags.push_back("--follow=127.0.0.1:" + std::to_string(repl_port));
    fflags.push_back("--snapshot=" + stem + "-follower.snap");
    follower = std::make_unique<Daemon>(o.ppcd, fflags, daemon_cpus);
    follower->wait_port("ppcd: standby on", 60'000);
  }

  connect_clients(w, port, set.clients);
  const PhasePlan plan = drive(set.clients, o.seconds, {}, client_cpus);
  const std::uint64_t rss_kib =
      primary->peak_rss_kib() + (follower ? follower->peak_rss_kib() : 0);
  // The primary's drain waits for the follower to acknowledge the last
  // batch, so the follower is stopped only after it.
  if (primary->terminate(60'000) != 0) {
    out.problems.push_back("ppcd did not drain cleanly");
  }
  if (follower) {
    if (follower->terminate(60'000) != 0) {
      out.problems.push_back("follower ppcd did not drain cleanly");
    }
    try {
      std::size_t moved = 0;
      const StateMatch m = compare_sink_states(sink_state_of(stem + "-primary.snap"),
                                               sink_state_of(stem + "-follower.snap"),
                                               w.policy.offender_capacity, moved);
      check_follower_state(m, moved, out);
    } catch (const std::runtime_error& e) {
      out.problems.push_back(e.what());
    }
  }

  const Quality q = check_clients(w, o, set.clients, out);
  std::vector<Receipt> receipts;
  std::vector<LatencySample> latency;
  for (const auto& c : set.clients) {
    const ClientStats& s = c->stats();
    receipts.insert(receipts.end(), s.closed.begin(), s.closed.end());
    latency.insert(latency.end(), s.latency.begin(), s.latency.end());
  }
  // Each metric is a quartile over many short samples: throughput per
  // closed-loop segment, latency percentiles per group of kLatencyGroup
  // consecutive open-loop batches. Other tenants of a shared host only ever
  // slow a sample down, in spells of seconds, so the upper quartile of
  // throughput (lower quartile of latency) tracks the system itself where a
  // median would track how busy the host was. On a shared 4-vCPU KVM guest
  // about 1% of batches meet a ~10 ms vCPU preemption, which is where a p99
  // sits; p95 (ten samples beyond it per group) stays clear of it, and the
  // run's p99 is printed for reference.
  std::vector<double> segment_rates;
  for (const Segment& s : plan.segments) {
    if (s.open) continue;
    double clicks = 0;
    for (const Receipt& r : receipts) {
      if (r.t_ns >= s.start_ns && r.t_ns < s.end_ns) clicks += r.clicks;
    }
    segment_rates.push_back(clicks / (static_cast<double>(s.end_ns - s.start_ns) / 1e9));
  }
  std::sort(latency.begin(), latency.end(),
            [](const LatencySample& a, const LatencySample& b) { return a.due_ns < b.due_ns; });
  constexpr std::size_t kLatencyGroup = 200;
  std::vector<double> p50s, p95s, group, all;
  const std::size_t groups = std::max<std::size_t>(1, latency.size() / kLatencyGroup);
  for (std::size_t g = 0; g < groups; ++g) {
    // A short tail joins the last group.
    const std::size_t from = g * kLatencyGroup;
    const std::size_t to = g + 1 == groups ? latency.size() : from + kLatencyGroup;
    group.clear();
    for (std::size_t i = from; i < to; ++i) group.push_back(latency[i].us);
    std::sort(group.begin(), group.end());
    p50s.push_back(quantile_sorted(group, 0.50));
    p95s.push_back(quantile_sorted(group, 0.95));
  }
  for (const LatencySample& l : latency) all.push_back(l.us);
  std::sort(all.begin(), all.end());
  std::printf("info open-loop batches %zu in %zu groups, run p99 %.6g us; "
              "%zu closed-loop segments\n",
              latency.size(), p95s.size(), quantile_sorted(all, 0.99),
              segment_rates.size());
  std::printf("info error_ratio %.6g\n",
              ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)));
  std::printf("info false_negatives %llu\n",
              static_cast<unsigned long long>(q.false_negatives));
  std::printf("info fraud_paid_ratio %.6g\n",
              ratio(static_cast<double>(q.attacker_paid), static_cast<double>(q.attacker)));
  out.add("throughput_mclicks", summarize(segment_rates).q3 / 1e6, "Mclicks/s");
  out.add("latency_p50_us", summarize(p50s).q1, "us");
  out.add("latency_p95_us", summarize(p95s).q1, "us");
  out.add("setup_s", summarize(setup).median, "s");
  out.add("rss_mib", static_cast<double>(rss_kib) / 1024.0, "MiB");
  out.add("fpr", ratio(static_cast<double>(q.false_positives), static_cast<double>(q.fresh)),
          "ratio");
  return out;
}

std::string json_escape(const std::string& s) {
  std::string r;
  for (const char c : s) {
    if (c == '"' || c == '\\') r.push_back('\\');
    r.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return r;
}

void print_result(const RunOutput& out) {
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "ppc_bench: CHECK FAILED: %s\n", p.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("metric %-44s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(out.attempted, 1)),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                json_escape(m.name).c_str(), std::isfinite(m.value) ? m.value : 0.0,
                json_escape(m.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ppc_bench --workload=NAME|all --seed=N --seconds=S "
               "--trace=0|1 --ppcd=PATH [--workdir=DIR] [--oracle-hashes=K]\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) usage();
    kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  Options o;
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") o.workload = v;
      else if (k == "seed") o.seed = std::stoull(v);
      else if (k == "seconds") o.seconds = std::stod(v);
      else if (k == "trace") o.trace = v == "1";
      else if (k == "ppcd") o.ppcd = v;
      else if (k == "workdir") o.workdir = v;
      else if (k == "oracle-hashes") o.oracle_hashes = std::stoull(v);
      else usage();
    }
  } catch (const std::exception&) {
    usage();
  }
  if (o.workload.empty() || o.seconds <= 0 || (!o.trace && o.ppcd.empty())) usage();
  return o;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Options o = parse_options(argc, argv);
  std::vector<const Workload*> selected;
  try {
    if (o.workload == "all") {
      for (const Workload& w : workloads()) selected.push_back(&w);
    } else {
      selected.push_back(&find_workload(o.workload));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppc_bench: %s\n", e.what());
    usage();
  }
  bool all_correct = true;
  for (const Workload* w : selected) {
    try {
      std::printf("ppc_bench: workload %s seed %llu, %.3g s timed, %s\n",
                  w->name.c_str(), static_cast<unsigned long long>(o.seed),
                  o.seconds, o.trace ? "traced in process" : "ppcd over loopback");
      std::fflush(stdout);
      const RunOutput out = o.trace ? run_traced(*w, o) : run_untraced(*w, o);
      print_result(out);
      all_correct = all_correct && out.problems.empty();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ppc_bench: %s: %s\n", w->name.c_str(), e.what());
      return 2;
    }
  }
  return all_correct ? 0 : 1;
}
