// Pieces shared by the untraced run (ppcd over loopback) and the traced
// run (the same server stack in process, with timing decorators).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client.hpp"
#include "workloads.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Timed seconds, required (run.py passes run_seconds of BENCHMARK.json);
  /// closed loop and open loop get half each.
  double seconds = 0.0;
  bool trace = false;
  std::string ppcd;
  std::string workdir = ".";
  /// Nonzero: build the oracle with this many hashes instead of the
  /// daemon's (the smoke test's proof that the oracle check bites).
  std::size_t oracle_hashes = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< correctness failures
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

using Clients = std::vector<std::unique_ptr<Client>>;

/// Builds one connection's traffic and client per workload connection.
struct ClientSet {
  std::vector<std::unique_ptr<Traffic>> traffic;
  Clients clients;
  ClientSet(const Workload& w, std::uint64_t seed);
};

/// Connects every client; with several event loops, reconnects until the
/// connections sit on distinct loops (the kernel hashes SO_REUSEPORT
/// accepts, and a run where both land on one loop measures something else).
void connect_clients(const Workload& w, std::uint16_t port, Clients& clients);

/// Coordinator callbacks, run on the calling thread as segment k starts
/// and once every client has finished it.
struct Hooks {
  std::function<void(std::size_t k, const Segment&)> begin;
  std::function<void(std::size_t k, const Segment&)> end;
};

/// Runs every client through warm-up, the timed segments and drain;
/// client i runs on client_cpus[i] when that list is not empty.
PhasePlan drive(Clients& clients, double seconds, const Hooks& hooks,
                const std::vector<int>& client_cpus = {});

/// enforce_replicated: feeds the connection's first `w.restore_clicks`
/// clicks through an in-process stack (recording their verdicts as the
/// prefix of `stats.verdicts`) and saves the snapshot the primary restores.
void build_restore_snapshot(const Workload& w, Traffic& traffic,
                            ClientStats& stats, const std::string& path);

/// Verdict quality over the timed phases, from the verification pass.
struct Quality {
  std::uint64_t fresh = 0;            ///< honest never-seen ids
  std::uint64_t false_positives = 0;  ///< of which `true`
  std::uint64_t attacker = 0;         ///< generator-labelled fraud
  std::uint64_t attacker_paid = 0;    ///< of which `false`
  std::uint64_t false_negatives = 0;  ///< over every click
  std::uint64_t mismatches = 0;       ///< wire vs in-process oracle
};

/// The correctness gate: connection errors, DRAIN_ACK totals, the oracle
/// replay (pool and tiered workloads) and zero false negatives. Failures
/// go to `out.problems`; the counts feed the quality metrics.
Quality check_clients(const Workload& w, const Options& o, Clients& clients,
                      RunOutput& out);

/// How a primary's sink state compares with its follower's.
enum class StateMatch {
  kIdentical,
  /// Equal but for the order of tied entries in the enforcement ledger's
  /// offender summary. A known defect, not the follower's:
  /// analysis::SpaceSaving::restore push_fronts the entries save() wrote
  /// front to back, so every snapshot round trip reverses each run of
  /// equal counts, and a follower that caught up through a snapshot holds
  /// them in another order than its primary.
  kOffenderTieOrder,
  kDifferent,
};

/// Compares two sink states (ClickSink::save_state bytes) whose enforcement
/// ledger, if any, keeps `offender_capacity` counters; `moved` receives how
/// many offender entries sit at different positions.
StateMatch compare_sink_states(std::string a, std::string b,
                               std::size_t offender_capacity, std::size_t& moved);

/// Records the comparison of a primary and a follower state in `out`: a
/// difference fails the run; a kOffenderTieOrder one is reported as a known
/// failure and does not.
void check_follower_state(StateMatch m, std::size_t moved, RunOutput& out);

RunOutput run_traced(const Workload& w, const Options& o);

}  // namespace e2e
