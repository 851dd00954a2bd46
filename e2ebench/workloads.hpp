// The benchmark's workloads: how ppcd is configured for each, the seeded
// click generators that drive it, and the in-process sink stacks (built
// with the same server_config.hpp builders ppcd uses) that serve as the
// oracle, the traced server and the replay targets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "adnet/tiered_detector_pool.hpp"
#include "enforce/reputation_ledger.hpp"
#include "server/enforcing_sink.hpp"
#include "server/ingest_server.hpp"
#include "server/server_config.hpp"

namespace e2e {

namespace adnet = ppc::adnet;
namespace core = ppc::core;
namespace enforce = ppc::enforce;
namespace hashing = ppc::hashing;
namespace server = ppc::server;

enum class Kind { kPool, kTiered, kEnforce };

struct Workload {
  std::string name;
  Kind kind = Kind::kPool;
  std::uint32_t connections = 1;  ///< client threads, one connection each
  std::uint32_t batch = 1024;     ///< clicks per CLICK_BATCH while timed
  double open_rate = 0.0;         ///< open loop: clicks/s, all connections
  /// Clicks each connection sends over the wire before timing starts.
  std::uint64_t warmup_clicks = 0;
  /// kEnforce: clicks replayed in process into the snapshot the primary
  /// restores (the window and the ledger start full).
  std::uint64_t restore_clicks = 0;
  std::size_t loops = 1;
  std::string window;  ///< --window spec (kPool, kEnforce)
  server::DetectorConfig detector;
  server::TieredConfig tiered;
  enforce::EnforcementPolicy policy;  ///< kEnforce
  std::uint64_t window_span = 0;  ///< half of it bounds planted replays
};

/// Every workload, in the order `--workload=all` runs them.
const std::vector<Workload>& workloads();
/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// The ppcd flags that build `w`'s sink (listen address and per-role
/// flags such as --restore or --follow are added by the caller).
std::vector<std::string> daemon_flags(const Workload& w);

/// Wire record version the workload's clients speak (v2 carries sources).
inline bool uses_v2(const Workload& w) { return w.kind == Kind::kEnforce; }

// ---------------------------------------------------------------------------
// Click generation.

struct Columns {
  std::vector<std::uint32_t> ads;
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> times;
  std::vector<std::uint32_t> sources;

  void resize(std::size_t n) {
    ads.resize(n);
    ids.resize(n);
    times.resize(n);
    sources.resize(n);
  }
};

/// Ground truth for one generated click, used by the verification pass.
struct Label {
  /// Index (on the same connection) of the click this one replays; -1 for
  /// a never-seen id. Replays are planted within half the window of their
  /// original, so a `false` verdict on one whose original was recorded
  /// (`false` itself) is a false negative.
  std::int64_t original = -1;
  bool attacker = false;  ///< generator-labelled fraud
};

/// A connection's deterministic click stream: the same (workload, seed,
/// connection) always yields the same clicks.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Writes the next `n` clicks into cols[0, n) and, when `labels` is not
  /// null, their ground truth into labels[0, n).
  virtual void fill(std::size_t n, Columns& cols, Label* labels) = 0;
};

std::unique_ptr<Traffic> make_traffic(const Workload& w, std::uint64_t seed,
                                      std::uint32_t connection);

// ---------------------------------------------------------------------------
// In-process sink stacks.

class Capture;

/// The sink ppcd builds for `w`'s flags. With `traced`, timing decorators
/// sit at each public layer boundary (see trace.hpp): outermost, directly
/// under the enforcement layer, and around each per-ad detector both
/// outside and inside the ShardedDetector; `capture` (optional) records
/// the outermost sink's batches for the post-run replays.
struct SinkStack {
  std::unique_ptr<adnet::DetectorPool> pool;
  std::unique_ptr<adnet::TieredDetectorPool> tiered;
  std::unique_ptr<enforce::ReputationLedger> ledger;
  /// Owned sinks, innermost first; `top` is the one to serve.
  std::vector<std::unique_ptr<server::ClickSink>> sinks;
  server::ClickSink* top = nullptr;
  server::EnforcingSink* enforcing = nullptr;
};

SinkStack build_stack(const Workload& w, bool traced = false,
                      Capture* capture = nullptr);

}  // namespace e2e
