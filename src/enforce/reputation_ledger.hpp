// ReputationLedger + EnforcementPolicy: the layer between duplicate
// verdicts and action.
//
// Detection (rate_monitor / heavy_hitters / auditor) says WHO is
// defrauding the network and WHEN; this module decides WHAT HAPPENS to
// them. Each traffic source (source IP, optionally scoped by publisher)
// carries a bounded reputation record — an EWMA duplicate rate, an
// exponentially-decaying duplicate score, and exact duplicate counts — and
// moves through four response tiers with hysteresis:
//
//   kClean → kFlagged → kDiscounted → kBlocked
//
// Tier-transition invariants (see DESIGN.md "Enforcement tiers"):
//  * Promotions require SUSTAINED evidence: the per-source EWMA duplicate
//    rate must exceed the target tier's rate threshold AND the source's
//    guaranteed duplicate count — the exact per-source tally, or the
//    Space-Saving summary's count−error LOWER bound, whichever is larger —
//    must reach the tier's minimum. An upper-bound count alone (which a
//    hash-collision-inflated Space-Saving entry can carry) never promotes.
//  * Promotions move ONE tier per observation; the only multi-tier jump is
//    the blatant-attack fast path (rate ≥ blatant_rate with blatant
//    evidence), which blocks immediately — the gargoyle-style "obvious
//    attack" shortcut.
//  * Demotions are score-driven with a hysteresis gap: a tier is kept
//    until the decayed duplicate score falls below demote_ratio × the
//    evidence that was required to enter it, so a rate oscillating at a
//    promotion threshold cannot flap the tier.
//  * Blocks expire by TTL: a blocked source re-offending extends
//    blocked_until_us; once the TTL lapses the source drops to
//    kDiscounted (the analysis phase — it is re-blocked quickly if the
//    attack resumes, and decays to clean if it does not).
//  * Memory is capped: at most max_sources records; sources are admitted
//    only on a duplicate verdict, and sweep() erases records whose score
//    has decayed to noise — reputations recover, the ledger shrinks.
//
// Snapshots use the versioned CRC section envelope of
// core/snapshot_io.hpp (magic "PPCENF01") and survive the same
// mutation-fuzz discipline as the detector formats.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "analysis/heavy_hitters.hpp"

namespace ppc::enforce {

enum class Tier : std::uint8_t {
  kClean = 0,       ///< no action; billing proceeds normally
  kFlagged = 1,     ///< billing proceeds; source is reported for review
  kDiscounted = 2,  ///< clicks billed at a discount pending analysis
  kBlocked = 3,     ///< clicks rejected at the wire until the TTL lapses
};

inline const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kClean: return "clean";
    case Tier::kFlagged: return "flagged";
    case Tier::kDiscounted: return "discounted";
    case Tier::kBlocked: return "blocked";
  }
  return "?";
}

/// Thresholds and TTLs of the tier state machine. Rates are per-source
/// EWMA duplicate rates in [0, 1]; minimum-duplicate gates are guaranteed
/// LOWER bounds (never Space-Saving upper bounds).
struct EnforcementPolicy {
  /// Rate required to enter each tier (must be strictly increasing).
  double flag_rate = 0.20;
  double discount_rate = 0.35;
  double block_rate = 0.55;
  /// Guaranteed duplicates required to enter each tier (strictly
  /// increasing): a burst of a few duplicates is not "sustained evidence".
  std::uint64_t flag_min_duplicates = 16;
  std::uint64_t discount_min_duplicates = 64;
  std::uint64_t block_min_duplicates = 256;
  /// Blatant-attack fast path: a source at or above this rate with this
  /// much guaranteed evidence is blocked immediately, skipping the
  /// intermediate tiers.
  double blatant_rate = 0.90;
  std::uint64_t blatant_min_duplicates = 64;
  /// Hysteresis gap: a tier is held until the decayed score falls below
  /// demote_ratio × the tier's entry evidence. Must be in (0, 1).
  double demote_ratio = 0.5;
  /// Half-life of the duplicate score (reputations recover at this pace).
  std::uint64_t score_half_life_us = 30'000'000;
  /// How long a block lasts without fresh offenses.
  std::uint64_t block_ttl_us = 60'000'000;
  /// Smoothing of the per-source EWMA duplicate rate (per click).
  double rate_alpha = 1.0 / 64;
  /// Minimum clicks observed from a source before any promotion — the
  /// rate estimate is meaningless on a handful of arrivals.
  std::uint64_t min_clicks = 32;
  /// Hard cap on dedicated per-source records.
  std::size_t max_sources = 1 << 16;
  /// Space-Saving counters behind the offender summary.
  std::size_t offender_capacity = 4096;
  /// When true, reputation is tracked per (publisher_id, source_ip) pair
  /// instead of per source_ip (a NAT that is clean on one publisher and
  /// dirty on another gets independent records).
  bool key_by_publisher = false;

  /// Throws std::invalid_argument on an inconsistent policy (thresholds
  /// out of order, ratios outside their domain, zero TTLs).
  void validate() const;
};

/// One tier change, as delivered to the transition callback (the decision
/// journal) and counted in Stats.
struct TierTransition {
  std::uint64_t key = 0;
  std::uint32_t source_ip = 0;
  std::uint32_t publisher_id = 0;
  Tier from = Tier::kClean;
  Tier to = Tier::kClean;
  std::uint64_t at_us = 0;
  /// Decayed duplicate score at the transition.
  double score = 0.0;
  /// Exact duplicate verdicts recorded for the source since admission.
  std::uint64_t duplicates = 0;
};

class ReputationLedger {
 public:
  struct Stats {
    std::uint64_t observed = 0;      ///< verdicts fed to observe()
    std::uint64_t duplicates = 0;    ///< of which duplicate
    std::uint64_t sources = 0;       ///< live dedicated records
    std::uint64_t flagged = 0;       ///< current tier populations …
    std::uint64_t discounted = 0;
    std::uint64_t blocked = 0;
    std::uint64_t promotions = 0;    ///< lifetime transition counts …
    std::uint64_t demotions = 0;
    std::uint64_t block_expiries = 0;
    std::uint64_t dropped_admissions = 0;  ///< ledger full, no evictable record
  };

  /// Everything export needs to know about one source, in key order.
  struct Record {
    std::uint64_t key = 0;
    std::uint32_t source_ip = 0;
    std::uint32_t publisher_id = 0;
    Tier tier = Tier::kClean;
    std::uint64_t clicks = 0;
    std::uint64_t duplicates = 0;
    double rate = 0.0;
    double score = 0.0;
    std::uint64_t last_seen_us = 0;
    std::uint64_t blocked_until_us = 0;
  };

  using TransitionCallback = std::function<void(const TierTransition&)>;

  explicit ReputationLedger(EnforcementPolicy policy = {});

  /// Invoked on every tier change (promotion, demotion, block expiry) —
  /// the hook the append-only decision journal hangs off.
  void set_transition_callback(TransitionCallback cb) {
    on_transition_ = std::move(cb);
  }

  /// Feeds one verdict. `now_us` must be monotone non-decreasing across
  /// calls (stream time). Returns the source's tier AFTER the update.
  Tier observe(std::uint32_t source_ip, std::uint32_t publisher_id,
               bool duplicate, std::uint64_t now_us);

  /// The response owed to a click from this source right now. Applies any
  /// due TTL expiry / score demotion before answering, so a lapsed block
  /// never rejects another click.
  Tier decide(std::uint32_t source_ip, std::uint32_t publisher_id,
              std::uint64_t now_us);

  /// Pure lookup without state movement (monitoring, exports).
  Tier tier_of(std::uint32_t source_ip, std::uint32_t publisher_id) const;

  /// Periodic cleanup pass: applies score decay and due demotions to every
  /// record and erases records that decayed to noise. Returns the number
  /// of records erased. O(sources).
  std::size_t sweep(std::uint64_t now_us);

  Stats stats() const noexcept;
  const EnforcementPolicy& policy() const noexcept { return policy_; }
  std::size_t size() const noexcept { return sources_.size(); }

  /// All dedicated records, sorted by key — the deterministic order the
  /// exporters (and the snapshot format) rely on.
  std::vector<Record> records() const;

  /// Serializes the full ledger (records, counters, offender summary) as
  /// one "PPCENF01" CRC section.
  void save(std::ostream& out) const;

  /// Restores state saved by save() into this instance. The policy's
  /// max_sources/offender_capacity must admit the snapshot; corrupt input
  /// throws std::runtime_error and leaves the ledger cleared.
  void restore(std::istream& in);

 private:
  struct SourceState {
    std::uint64_t clicks = 0;
    std::uint64_t duplicates = 0;
    double rate = 0.0;
    double score = 0.0;
    std::uint64_t last_seen_us = 0;
    Tier tier = Tier::kClean;
    std::uint64_t tier_since_us = 0;
    std::uint64_t blocked_until_us = 0;
  };

  std::uint64_t make_key(std::uint32_t source_ip,
                         std::uint32_t publisher_id) const noexcept {
    return policy_.key_by_publisher
               ? (static_cast<std::uint64_t>(publisher_id) << 32) | source_ip
               : source_ip;
  }

  /// Guaranteed lower bound on the source's duplicates: the exact tally
  /// since admission, or the Space-Saving count−error bound, whichever
  /// certifies more.
  bool evidence_at_least(const SourceState& s, std::uint64_t key,
                         std::uint64_t n) const;

  void decay_score(SourceState& s, std::uint64_t now_us) const;
  void set_tier(std::uint64_t key, SourceState& s, Tier to,
                std::uint64_t now_us);
  /// Applies TTL expiry and score-driven demotions due at `now_us`.
  void apply_demotions(std::uint64_t key, SourceState& s,
                       std::uint64_t now_us);

  double promote_rate(Tier to) const noexcept;
  std::uint64_t promote_min_duplicates(Tier to) const noexcept;

  /// restore()'s section body: parses the records, counters and offender
  /// summary, and applies them once all of them parsed.
  void restore_payload(std::istream& payload);

  EnforcementPolicy policy_;
  std::unordered_map<std::uint64_t, SourceState> sources_;
  analysis::SpaceSaving offenders_;
  /// Lifetime counters (the population fields are filled by stats()).
  Stats stats_;
  std::array<std::uint64_t, 4> tier_count_{};  ///< live records per tier
  TransitionCallback on_transition_;
};

}  // namespace ppc::enforce
