// Deterministic transport fault layer between the cluster router and its
// shard replicas (DESIGN.md §15).
//
// Every router↔replica message — single-shard dispatches at submit and
// per-shard scatter contacts at drain — passes through a FaultyTransport
// that can drop, delay (in virtual-cost ticks), duplicate, or reorder it
// per a seeded schedule, the serving-path mirror of the crawler fault
// model (PR 2) and the chaos schedule (resilience.h). On top of the raw
// channels sit the recovery mechanics real clusters use:
//
//   - per-RPC timeouts on the virtual clock with capped retries: an
//     attempt that misses `timeout_ticks` burns the full timeout and is
//     retried up to `max_retries` times;
//   - hedged sends: once the primary attempt is `hedge_ticks` old, a
//     duplicate request races to the sibling replica; the earlier
//     completion wins (ties go to the primary);
//   - a per-replica circuit breaker: `breaker_threshold` consecutive
//     failures open it (the router stops targeting the replica — organic
//     failover), `breaker_cooldown` drains later it half-opens, and one
//     successful probe closes it;
//   - quorum degradation at the caller: an rpc that exhausts every
//     attempt makes the cluster answer with an explicitly-flagged
//     degraded response (kResponseQuorumPartial) — never a silent drop,
//     never a hang.
//
// Determinism contract: every outcome is a pure splitmix64 function of
// (seed, rpc key, attempt) — rpc keys mix the router's request sequence
// number, the scatter phase and the shard — never of wall clock or lane
// count. Scatter lanes roll outcomes concurrently against a target table
// frozen at drain start (`freeze`/`probe_shard`) and the coordinator
// folds them into breaker state and counters serially in admission order
// (`commit`), so a storm is bit-identical at any GPLUS_THREADS.
//
// Disabled (the default) the transport is a perfect network: the cluster
// behaves exactly as it did without one and no serve.transport.* name is
// ever registered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace gplus::serve {

/// Lossy-channel profile. Rates in [0,1]; 0 disables a channel. The
/// `only_shard` / `only_replica` filters scope every channel to one shard
/// (a partitioned region) or one replica index (a sick machine class);
/// -1 applies faults everywhere. Swappable between drains (chaos hook).
struct FaultProfile {
  /// Per-attempt probability the message is lost outright (the sender
  /// learns nothing until the timeout expires).
  double drop_rate = 0.0;
  /// Per-attempt probability of an extra [delay_min, delay_max]-tick
  /// delivery delay on top of the 1-tick base round trip.
  double delay_rate = 0.0;
  std::uint32_t delay_min = 4;
  std::uint32_t delay_max = 48;
  /// Per-attempt probability a delivered message arrives twice (the
  /// receiver deduplicates; only counters notice).
  double duplicate_rate = 0.0;
  /// Per-drain probability a replica's response batch is delivered in
  /// reverse order (the router re-matches responses by request id).
  double reorder_rate = 0.0;
  std::int32_t only_shard = -1;
  std::int32_t only_replica = -1;
};

/// Transport knobs. `enabled` false (the default) bypasses everything.
struct TransportConfig {
  bool enabled = false;
  std::uint64_t seed = 0;
  FaultProfile profile;
  /// Per-attempt round-trip deadline in virtual-cost ticks (>= 1).
  std::uint32_t timeout_ticks = 24;
  /// Timed-out attempts retried after a full timeout each; an rpc makes
  /// at most 1 + max_retries primary attempts before failing.
  std::uint32_t max_retries = 2;
  /// Hedge to the sibling replica once the primary attempt is this many
  /// ticks old (0 disables hedging).
  std::uint32_t hedge_ticks = 8;
  /// Consecutive rpc failures that open a replica's breaker (0 disables
  /// the breaker).
  std::uint32_t breaker_threshold = 4;
  /// Drains an open breaker stays open before half-opening for probes.
  std::uint32_t breaker_cooldown = 6;
};

/// Lifetime transport counters, built from the transport's counter store.
/// The registry exports each one as serve.transport.<field>, summed over
/// every transport in the process, from the first committed rpc on.
struct TransportStats {
  std::uint64_t rpcs = 0;           // logical router->shard rpcs issued
  std::uint64_t attempts = 0;       // individual sends (retries + hedges)
  std::uint64_t delivered = 0;      // rpcs answered within some timeout
  std::uint64_t failed = 0;         // rpcs that exhausted every attempt
  std::uint64_t dropped = 0;        // attempts lost outright
  std::uint64_t delayed = 0;        // attempts that drew a delivery delay
  std::uint64_t timeouts = 0;       // attempts that burned a full timeout
  std::uint64_t retries = 0;        // primary attempts after the first
  std::uint64_t hedges = 0;         // hedged sends issued
  std::uint64_t hedge_wins = 0;     // rpcs completed by the hedge target
  std::uint64_t duplicates = 0;     // delivered attempts sent twice
  std::uint64_t dup_suppressed = 0; // receiver-side duplicate discards
  std::uint64_t reorders = 0;       // replica batches delivered reversed
  std::uint64_t breaker_open = 0;   // closed/half-open -> open transitions
  std::uint64_t breaker_close = 0;  // half-open -> closed transitions
  std::uint64_t breaker_probes = 0; // rpcs sent to a half-open replica
  std::uint64_t breaker_skips = 0;  // sends skipped: every target open
  std::uint64_t ticks = 0;          // virtual clock consumed end to end

  bool operator==(const TransportStats&) const = default;
};

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

/// One whole rpc — the primary attempt series plus any hedges — decided
/// before delivery. Pure in (seed, key, target tuple): scatter lanes roll
/// these concurrently and the coordinator commits them serially.
struct RpcOutcome {
  bool ok = false;
  bool no_target = false;  // every replica dead or breaker-open
  bool hedge_won = false;  // completed by the sibling, not the primary
  bool probe = false;      // primary was half-open (breaker probe)
  std::uint16_t primary = 0;
  std::uint16_t sibling = 0;
  std::uint16_t attempts = 0;
  std::uint16_t retries = 0;
  std::uint16_t hedges = 0;
  std::uint16_t timeouts = 0;
  std::uint16_t dropped = 0;
  std::uint16_t delayed = 0;
  std::uint16_t duplicates = 0;
  std::uint64_t ticks = 0;

  /// The replica that answered (valid when ok).
  std::size_t replica() const noexcept { return hedge_won ? sibling : primary; }
};

/// One scatter-side shard contact rolled on a drain lane (`probe_shard`),
/// committed into stats and breakers serially in drain phase C.
struct ShardRpc {
  std::uint16_t shard = 0;
  RpcOutcome outcome;
};

/// The seeded fault layer. Coordinator-owned; the only concurrent entry
/// point is the const `probe_shard`, which reads nothing but the config
/// and the drain-start frozen target table.
class FaultyTransport {
 public:
  /// Throws std::invalid_argument on unusable knobs (enabled with a zero
  /// timeout, an inverted delay range, or out-of-range rates).
  FaultyTransport(TransportConfig config, std::size_t shards,
                  std::size_t replicas);

  bool enabled() const noexcept { return config_.enabled; }
  const TransportConfig& config() const noexcept { return config_; }
  TransportStats stats() const;

  /// Stable rpc key: (request sequence, scatter phase, shard) each get
  /// their own fault stream, so outcomes never depend on drain timing or
  /// lane count.
  static std::uint64_t rpc_key(std::uint64_t seq, std::uint32_t phase,
                               std::size_t shard) noexcept;

  /// Coordinator-side rpc against the CURRENT breaker/liveness state
  /// (single-shard dispatch at submit). `up_row` is the shard's R
  /// liveness bytes. Commits stats and breaker bookkeeping immediately.
  RpcOutcome dispatch(std::uint64_t key, std::size_t shard,
                      const std::uint8_t* up_row);

  /// Freezes per-shard target selection for this drain's scatter grid
  /// (serial, at drain start). `up` is the full shard-major liveness
  /// array. Scatter outcomes then read only the frozen table — breaker
  /// transitions folded later this drain model results already in flight.
  void freeze(const std::uint8_t* up);
  /// Pure scatter-side rpc roll against the frozen targets (any lane).
  RpcOutcome probe_shard(std::uint64_t key, std::size_t shard) const;
  /// Serial fold of one rolled outcome into stats + breaker state, in
  /// admission order (drain phase C).
  void commit(std::size_t shard, const RpcOutcome& outcome);

  /// Rolls whether replica (shard, replica)'s drained batch of `batch`
  /// responses is delivered in reverse order this drain (the router
  /// re-matches by request id, so payloads are unaffected — the counter
  /// and the reshuffled delivery prove the matching is id-based).
  bool reorder_batch(std::size_t shard, std::size_t replica,
                     std::size_t batch);

  /// Advances breaker cooldowns one drain tick (open -> half-open when
  /// the cooldown expires) and the reorder stream.
  void tick();
  /// Virtual ticks accumulated by commits since the last call; the
  /// cluster flushes them into the trace clock at drain end.
  std::uint64_t take_ticks() noexcept;

  BreakerState breaker_state(std::size_t shard, std::size_t replica) const;
  /// Chaos hooks (coordinator, between drains).
  void set_profile(const FaultProfile& profile);
  void reset_breakers();
  /// Perfect network from here on: zero-rate profile + closed breakers,
  /// `enabled` unchanged (post-storm probes stay accounted).
  void heal();

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    std::uint32_t failures = 0;
    std::uint32_t cooldown = 0;
  };
  /// Primary = lowest live replica whose breaker admits sends; sibling =
  /// the next such (the hedge target).
  struct Targets {
    std::uint16_t primary = 0;
    std::uint16_t sibling = 0;
    bool has_primary = false;
    bool has_sibling = false;
    bool probe = false;  // primary is half-open
  };
  struct Attempt {
    bool dropped = false;
    bool duplicate = false;
    std::uint32_t delay = 0;
  };

  Targets select_targets(std::size_t shard, const std::uint8_t* up_row) const;
  Attempt roll_attempt(std::uint64_t key, std::uint32_t attempt,
                       std::uint32_t salt, std::size_t shard,
                       std::size_t replica) const;
  RpcOutcome roll_rpc(std::uint64_t key, std::size_t shard,
                      const Targets& targets) const;
  void breaker_result(std::size_t shard, std::size_t replica, bool ok);
  void open_breaker(Breaker& breaker);
  /// Exports the counts to the registry on the first commit, so a
  /// transport that never carries a message registers no names.
  void export_counts();

  TransportConfig config_;
  std::size_t shards_ = 0;
  std::size_t replicas_ = 0;
  std::vector<Breaker> breakers_;       // shard-major, like cluster up_
  std::vector<Targets> frozen_;         // per shard, valid for one drain
  obs::CounterStore counts_;            // one cell per TransportStats field
  std::uint64_t pending_ticks_ = 0;
  std::uint64_t drain_seq_ = 0;         // reorder stream index
};

}  // namespace gplus::serve
