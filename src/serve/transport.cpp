#include "serve/transport.h"

#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "serve/resilience.h"
#include "stats/rng.h"

namespace gplus::serve {

namespace {

// Salt layout for the per-attempt draws: each attempt consumes a fixed
// window of the rpc's salt space, so attempt k of one rpc never aliases
// attempt j of another role (primary vs hedge) or channel.
constexpr std::uint64_t kSaltDrop = 0;
constexpr std::uint64_t kSaltDelayGate = 1;
constexpr std::uint64_t kSaltDelayTicks = 2;
constexpr std::uint64_t kSaltDuplicate = 3;
constexpr std::uint64_t kSaltsPerAttempt = 8;
constexpr std::uint64_t kHedgeSaltOffset = 4;
// Reorder rolls live on their own (drain, replica) stream, not an rpc key.
constexpr std::uint64_t kSaltReorder = 0x5EC0;

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// Every TransportStats count, once, and its name under
// "serve.transport.". Commits run on the coordinator in admission order,
// so the counts are deterministic at any lane count.
constexpr obs::CounterField<TransportStats> kCounters[] = {
    {"rpcs", &TransportStats::rpcs},
    {"attempts", &TransportStats::attempts},
    {"delivered", &TransportStats::delivered},
    {"failed", &TransportStats::failed},
    {"dropped", &TransportStats::dropped},
    {"delayed", &TransportStats::delayed},
    {"timeouts", &TransportStats::timeouts},
    {"retries", &TransportStats::retries},
    {"hedges", &TransportStats::hedges},
    {"hedge_wins", &TransportStats::hedge_wins},
    {"duplicates", &TransportStats::duplicates},
    {"dup_suppressed", &TransportStats::dup_suppressed},
    {"reorders", &TransportStats::reorders},
    {"breaker_open", &TransportStats::breaker_open},
    {"breaker_close", &TransportStats::breaker_close},
    {"breaker_probes", &TransportStats::breaker_probes},
    {"breaker_skips", &TransportStats::breaker_skips},
    {"ticks", &TransportStats::ticks},
};
template <auto Field>
constexpr std::size_t kCell = obs::cell_of(kCounters, Field);

void validate_rate(double rate, const char* what) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument(std::string("transport: ") + what +
                                " outside [0, 1]");
  }
}

}  // namespace

FaultyTransport::FaultyTransport(TransportConfig config, std::size_t shards,
                                 std::size_t replicas)
    : config_(config),
      shards_(shards),
      replicas_(replicas),
      counts_(std::size(kCounters)) {
  if (config_.enabled) {
    if (config_.timeout_ticks == 0) {
      throw std::invalid_argument("transport: timeout_ticks must be >= 1");
    }
    if (config_.profile.delay_max < config_.profile.delay_min) {
      throw std::invalid_argument("transport: delay_max < delay_min");
    }
    validate_rate(config_.profile.drop_rate, "drop_rate");
    validate_rate(config_.profile.delay_rate, "delay_rate");
    validate_rate(config_.profile.duplicate_rate, "duplicate_rate");
    validate_rate(config_.profile.reorder_rate, "reorder_rate");
  }
  breakers_.assign(shards_ * replicas_, Breaker{});
  frozen_.assign(shards_, Targets{});
}

std::uint64_t FaultyTransport::rpc_key(std::uint64_t seq, std::uint32_t phase,
                                       std::size_t shard) noexcept {
  // A full splitmix chain (not bit-packing): any (seq, phase, shard)
  // tuple gets an independent stream even at storm-scale sequence counts.
  std::uint64_t state = seq;
  state ^= stats::splitmix64_next(state) + phase;
  state ^= stats::splitmix64_next(state) + shard;
  return stats::splitmix64_next(state);
}

FaultyTransport::Targets FaultyTransport::select_targets(
    std::size_t shard, const std::uint8_t* up_row) const {
  Targets t;
  for (std::size_t r = 0; r < replicas_; ++r) {
    if (up_row[r] == 0) continue;
    const Breaker& b = breakers_[shard * replicas_ + r];
    if (b.state == BreakerState::kOpen) continue;
    if (!t.has_primary) {
      t.primary = static_cast<std::uint16_t>(r);
      t.has_primary = true;
      t.probe = b.state == BreakerState::kHalfOpen;
    } else {
      t.sibling = static_cast<std::uint16_t>(r);
      t.has_sibling = true;
      break;
    }
  }
  return t;
}

FaultyTransport::Attempt FaultyTransport::roll_attempt(
    std::uint64_t key, std::uint32_t attempt, std::uint32_t salt,
    std::size_t shard, std::size_t replica) const {
  Attempt out;
  const FaultProfile& p = config_.profile;
  if (p.only_shard >= 0 && shard != static_cast<std::size_t>(p.only_shard)) {
    return out;
  }
  if (p.only_replica >= 0 &&
      replica != static_cast<std::size_t>(p.only_replica)) {
    return out;
  }
  const std::uint64_t base = attempt * kSaltsPerAttempt + salt;
  out.dropped = chaos_unit(config_.seed, key, base + kSaltDrop) < p.drop_rate;
  if (out.dropped) return out;
  if (chaos_unit(config_.seed, key, base + kSaltDelayGate) < p.delay_rate) {
    const std::uint32_t span = p.delay_max - p.delay_min + 1;
    out.delay = p.delay_min +
                static_cast<std::uint32_t>(
                    chaos_word(config_.seed, key, base + kSaltDelayTicks) %
                    span);
  }
  out.duplicate =
      chaos_unit(config_.seed, key, base + kSaltDuplicate) < p.duplicate_rate;
  return out;
}

RpcOutcome FaultyTransport::roll_rpc(std::uint64_t key, std::size_t shard,
                                     const Targets& targets) const {
  RpcOutcome o;
  if (!targets.has_primary) {
    o.no_target = true;
    return o;
  }
  o.primary = targets.primary;
  o.sibling = targets.sibling;
  o.probe = targets.probe;
  const std::uint32_t max_attempts = 1 + config_.max_retries;
  const bool hedging = targets.has_sibling && config_.hedge_ticks > 0;
  for (std::uint32_t a = 0; a < max_attempts; ++a) {
    if (a > 0) ++o.retries;
    const Attempt prim = roll_attempt(key, a, 0, shard, targets.primary);
    ++o.attempts;
    // A delivered message costs 1 base tick plus any injected delay; a
    // dropped one never completes.
    std::uint64_t prim_done = kNever;
    if (prim.dropped) {
      ++o.dropped;
    } else {
      prim_done = 1 + prim.delay;
      if (prim.delay > 0) ++o.delayed;
      if (prim.duplicate) ++o.duplicates;
    }
    std::uint64_t done = prim_done;
    bool winner_sibling = false;
    if (hedging && prim_done > config_.hedge_ticks) {
      const Attempt hedge =
          roll_attempt(key, a, kHedgeSaltOffset, shard, targets.sibling);
      ++o.attempts;
      ++o.hedges;
      std::uint64_t hedge_done = kNever;
      if (hedge.dropped) {
        ++o.dropped;
      } else {
        hedge_done = config_.hedge_ticks + 1 + hedge.delay;
        if (hedge.delay > 0) ++o.delayed;
        if (hedge.duplicate) ++o.duplicates;
      }
      if (hedge_done < prim_done) {
        done = hedge_done;
        winner_sibling = true;
      }
    }
    if (done <= config_.timeout_ticks) {
      o.ok = true;
      o.hedge_won = winner_sibling;
      o.ticks += done;
      return o;
    }
    ++o.timeouts;
    o.ticks += config_.timeout_ticks;
  }
  return o;
}

RpcOutcome FaultyTransport::dispatch(std::uint64_t key, std::size_t shard,
                                     const std::uint8_t* up_row) {
  const RpcOutcome outcome =
      roll_rpc(key, shard, select_targets(shard, up_row));
  commit(shard, outcome);
  return outcome;
}

void FaultyTransport::freeze(const std::uint8_t* up) {
  ++drain_seq_;
  for (std::size_t s = 0; s < shards_; ++s) {
    frozen_[s] = select_targets(s, up + s * replicas_);
  }
}

RpcOutcome FaultyTransport::probe_shard(std::uint64_t key,
                                        std::size_t shard) const {
  return roll_rpc(key, shard, frozen_[shard]);
}

TransportStats FaultyTransport::stats() const {
  TransportStats s;
  counts_.read_fields(kCounters, s);
  return s;
}

void FaultyTransport::export_counts() {
  if (!counts_.exported()) counts_.export_fields(kCounters, "serve.transport.");
}

void FaultyTransport::commit(std::size_t shard, const RpcOutcome& o) {
  export_counts();
  if (o.no_target) {
    counts_.add(kCell<&TransportStats::breaker_skips>);
    return;
  }
  counts_.add(kCell<&TransportStats::rpcs>);
  counts_.add(kCell<&TransportStats::attempts>, o.attempts);
  counts_.add(kCell<&TransportStats::retries>, o.retries);
  counts_.add(kCell<&TransportStats::hedges>, o.hedges);
  counts_.add(kCell<&TransportStats::timeouts>, o.timeouts);
  counts_.add(kCell<&TransportStats::dropped>, o.dropped);
  counts_.add(kCell<&TransportStats::delayed>, o.delayed);
  counts_.add(kCell<&TransportStats::duplicates>, o.duplicates);
  // The receiver discards every duplicate it is sent.
  counts_.add(kCell<&TransportStats::dup_suppressed>, o.duplicates);
  counts_.add(kCell<&TransportStats::ticks>, o.ticks);
  pending_ticks_ += o.ticks;
  if (o.probe) counts_.add(kCell<&TransportStats::breaker_probes>);
  if (o.ok) {
    counts_.add(kCell<&TransportStats::delivered>);
    if (o.hedge_won) counts_.add(kCell<&TransportStats::hedge_wins>);
  } else {
    counts_.add(kCell<&TransportStats::failed>);
  }
  if (config_.breaker_threshold > 0) {
    if (o.ok) {
      breaker_result(shard, o.replica(), true);
    } else {
      breaker_result(shard, o.primary, false);
      if (o.hedges > 0) breaker_result(shard, o.sibling, false);
    }
  }
}

void FaultyTransport::breaker_result(std::size_t shard, std::size_t replica,
                                     bool ok) {
  Breaker& b = breakers_[shard * replicas_ + replica];
  switch (b.state) {
    case BreakerState::kClosed:
      if (ok) {
        b.failures = 0;
      } else if (++b.failures >= config_.breaker_threshold) {
        open_breaker(b);
      }
      break;
    case BreakerState::kHalfOpen:
      if (ok) {
        b.state = BreakerState::kClosed;
        b.failures = 0;
        counts_.add(kCell<&TransportStats::breaker_close>);
      } else {
        open_breaker(b);
      }
      break;
    case BreakerState::kOpen:
      // A late result for an already-tripped target: ignored, exactly as
      // a real breaker ignores responses to requests it no longer owns.
      break;
  }
}

void FaultyTransport::open_breaker(Breaker& breaker) {
  breaker.state = BreakerState::kOpen;
  breaker.failures = 0;
  breaker.cooldown =
      config_.breaker_cooldown > 0 ? config_.breaker_cooldown : 1;
  counts_.add(kCell<&TransportStats::breaker_open>);
}

bool FaultyTransport::reorder_batch(std::size_t shard, std::size_t replica,
                                    std::size_t batch) {
  const FaultProfile& p = config_.profile;
  if (!config_.enabled || batch < 2 || p.reorder_rate <= 0.0) return false;
  if (p.only_shard >= 0 && shard != static_cast<std::size_t>(p.only_shard)) {
    return false;
  }
  if (p.only_replica >= 0 &&
      replica != static_cast<std::size_t>(p.only_replica)) {
    return false;
  }
  const std::uint64_t stream =
      rpc_key(drain_seq_, kSaltReorder, shard * replicas_ + replica);
  if (chaos_unit(config_.seed, stream, kSaltReorder) >= p.reorder_rate) {
    return false;
  }
  export_counts();
  counts_.add(kCell<&TransportStats::reorders>);
  return true;
}

void FaultyTransport::tick() {
  for (Breaker& b : breakers_) {
    if (b.state != BreakerState::kOpen) continue;
    if (b.cooldown > 0 && --b.cooldown == 0) {
      b.state = BreakerState::kHalfOpen;
    }
  }
}

std::uint64_t FaultyTransport::take_ticks() noexcept {
  const std::uint64_t out = pending_ticks_;
  pending_ticks_ = 0;
  return out;
}

BreakerState FaultyTransport::breaker_state(std::size_t shard,
                                            std::size_t replica) const {
  return breakers_[shard * replicas_ + replica].state;
}

void FaultyTransport::set_profile(const FaultProfile& profile) {
  if (profile.delay_max < profile.delay_min) {
    throw std::invalid_argument("transport: delay_max < delay_min");
  }
  validate_rate(profile.drop_rate, "drop_rate");
  validate_rate(profile.delay_rate, "delay_rate");
  validate_rate(profile.duplicate_rate, "duplicate_rate");
  validate_rate(profile.reorder_rate, "reorder_rate");
  config_.profile = profile;
}

void FaultyTransport::reset_breakers() {
  for (Breaker& b : breakers_) b = Breaker{};
}

void FaultyTransport::heal() {
  set_profile(FaultProfile{});  // every rate defaults to 0: perfect network
  reset_breakers();
}

}  // namespace gplus::serve
