// Resilience layer for the query server: snapshot hot-swap with rollback
// and a seeded chaos schedule.
//
// Three pieces (DESIGN.md §10):
//
//   SnapshotManager — owns snapshot *generations* (buffer + view) behind
//   an epoch/refcount scheme. Exactly one generation is active at a time;
//   the previous one is retained for rollback, and RAII `Pin`s keep any
//   generation alive across swaps (the server pins whatever it serves
//   from). All operations run on the coordinator thread between drains,
//   so the counters are plain integers — the safety the refcount buys is
//   lifetime (no view freed while pinned), not concurrency.
//
//   ChaosSchedule — the serve-path sibling of the PR 2 crawler fault
//   schedule: every injected misfortune (engine fault, per-request
//   slowdown, queue pressure) is a pure splitmix64 function of
//   (seed, sequence/tick), so a chaotic run is exactly replayable and
//   bit-identical at any GPLUS_THREADS.
//
//   ResilientServer — composes a QueryServer with both: submit rolls the
//   chaos schedule (slowdowns become tight virtual-cost deadlines, faults
//   become terminal kFaultInjected marks), install() runs the full
//   validate → swap → canary → commit-or-rollback protocol, kill_active()
//   drops to degraded stale-cache serving, rollback() restores the
//   previous generation.
//
// The storm harnesses that drive this stack and check its invariants live
// outside the serving library, in bench/storm/storm.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.h"
#include "serve/snapshot.h"

namespace gplus::serve {

/// Owns snapshot generations; at most one is active. Coordinator-thread
/// only (same discipline as QueryServer submit/drain).
class SnapshotManager {
  struct Generation;

 public:
  /// RAII refcount on one generation: while any Pin is held the
  /// generation's buffer and view stay alive, even after it stops being
  /// active or rollback-eligible.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { release(); }
    Pin(Pin&& other) noexcept : gen_(other.gen_) { other.gen_ = nullptr; }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        release();
        gen_ = other.gen_;
        other.gen_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    const SnapshotView* view() const noexcept;
    std::uint64_t epoch() const noexcept;
    explicit operator bool() const noexcept { return gen_ != nullptr; }
    void release() noexcept;

   private:
    friend class SnapshotManager;
    explicit Pin(Generation* gen) noexcept;
    Generation* gen_ = nullptr;
  };

  SnapshotManager() = default;
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Deep candidate validation: opens a view (header checksum, bounds)
  /// and, on v2, recomputes every section digest. Returns the defect
  /// message, or "" when the candidate is sound. Static — validation
  /// never touches live state.
  static std::string validate(const SnapshotBuffer& candidate);

  /// Adopts `candidate` as the new active generation (no validation —
  /// callers validate first) and returns its epoch. The old active
  /// generation becomes the rollback target.
  std::uint64_t install(SnapshotBuffer candidate);

  /// Drops the active generation (keeping it as the rollback target):
  /// the manager is then degraded — active() == nullptr.
  void kill_active();

  /// Restores the previous generation as active. False when there is
  /// nothing to roll back to; the rolled-away generation is discarded.
  bool rollback();

  /// Active view (nullptr while degraded) and its epoch (0 while
  /// degraded). Epochs are assigned 1, 2, ... per install, never reused.
  const SnapshotView* active() const noexcept;
  std::uint64_t epoch() const noexcept;
  bool degraded() const noexcept { return active_ == nullptr; }
  bool can_rollback() const noexcept { return previous_ != nullptr; }

  /// Pins the active generation (empty Pin while degraded).
  Pin pin_active() noexcept;

  /// Generations still held (active + previous + anything pinned).
  std::size_t generation_count() const noexcept { return generations_.size(); }

  /// Frees every generation that is neither active, nor the rollback
  /// target, nor pinned. Called after each state transition; callers that
  /// just released a Pin may call it again to collect what the pin held.
  void reap();

 private:
  struct Generation {
    SnapshotBuffer buffer;
    std::unique_ptr<SnapshotView> view;
    std::uint64_t epoch = 0;
    std::uint32_t refs = 0;
  };

  std::vector<std::unique_ptr<Generation>> generations_;
  Generation* active_ = nullptr;
  Generation* previous_ = nullptr;
  std::uint64_t next_epoch_ = 1;
};

/// The shared seeded-misfortune primitive: a splitmix64 chain over
/// (seed, stream, salt), the same construction as the crawler fault
/// schedule (service.cpp). ChaosSchedule and the cluster transport layer
/// (transport.h) both draw from it, so every injected event in the system
/// replays exactly from its seed.
std::uint64_t chaos_word(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t salt) noexcept;
/// Uniform [0,1) off the same chain.
double chaos_unit(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t salt) noexcept;

/// Chaos knobs. Rates in [0,1]; 0 disables the channel.
struct ChaosConfig {
  std::uint64_t seed = 0;
  /// Per-request probability of a terminal kFaultInjected.
  double fault_rate = 0.0;
  /// Per-request probability of a tight deadline (`slow_budget`).
  double slow_rate = 0.0;
  /// Virtual-cost budget forced onto slowed requests.
  std::uint32_t slow_budget = 8;
  /// Per-drain-tick probability of queue pressure next round.
  double pressure_rate = 0.0;
  /// Effective queue capacity while pressure is on.
  std::size_t pressure_capacity = 8;
};

/// Pure fault schedule over request sequence numbers and drain ticks —
/// the serving-path mirror of service::FaultConfig's splitmix64 rolls.
class ChaosSchedule {
 public:
  explicit ChaosSchedule(ChaosConfig config) : config_(config) {}

  struct RequestEvents {
    bool fault = false;
    bool slow = false;
  };

  /// Events for the seq-th submit (pure in (seed, seq)).
  RequestEvents request_events(std::uint64_t seq) const noexcept;

  /// Queue-pressure override for drain tick `tick` (0 = no pressure).
  std::size_t pressure(std::uint64_t tick) const noexcept;

  const ChaosConfig& config() const noexcept { return config_; }

 private:
  ChaosConfig config_;
};

/// What one install attempt did.
struct InstallReport {
  bool installed = false;    // candidate is now active
  bool rolled_back = false;  // candidate was swapped in, then backed out
  std::uint64_t epoch = 0;   // active epoch after the call (0 = degraded)
  std::string error;         // "" on clean install
};

/// QueryServer + SnapshotManager + ChaosSchedule: the serving stack that
/// keeps answering under overload, slow requests, and bad snapshots.
/// Coordinator-thread only; parallelism stays inside drain().
class ResilientServer {
 public:
  explicit ResilientServer(ServerConfig config = {}, ChaosConfig chaos = {});

  /// Submits with the chaos schedule applied: the seq-th call may carry a
  /// forced slow-budget deadline or a terminal fault mark. Returns what
  /// QueryServer::submit returns (kOk or kRejected).
  ServeStatus submit(const Request& request);

  /// Drains every queued request, then rolls next round's queue pressure.
  void drain(std::vector<Response>& responses);

  /// Full hot-swap protocol: validate `candidate` deeply; swap it in
  /// between drains (requires queued() == 0); run canary queries against
  /// the new engine; commit — or roll back to the pre-install generation
  /// when validation or the canary fails. The result cache is cleared
  /// exactly when the active epoch changes to one it was not filled
  /// under, so stale-by-swap entries can never leak. `force_canary_
  /// failure` makes the canary fail unconditionally (chaos/rollback
  /// drills).
  InstallReport install(SnapshotBuffer candidate,
                        bool force_canary_failure = false);

  /// Drops the active snapshot: degraded mode. Cached answers survive
  /// (they are served as kStaleCache); requires queued() == 0.
  void kill_active();

  /// Restores the previous generation; false when none. Requires
  /// queued() == 0.
  bool rollback();

  bool degraded() const noexcept { return server_.degraded(); }
  std::uint64_t epoch() const noexcept { return manager_.epoch(); }
  std::size_t queued() const noexcept { return server_.queued(); }
  std::uint64_t submits() const noexcept { return submit_seq_; }

  QueryServer& server() noexcept { return server_; }
  const QueryServer& server() const noexcept { return server_; }
  SnapshotManager& manager() noexcept { return manager_; }
  ServerStats stats_snapshot() const { return server_.stats_snapshot(); }

 private:
  /// Self-consistency canary over the freshly bound engine: profile
  /// echoes the probed id, Degree agrees with the profile's degree
  /// fields, circle pages are well-formed, TopK is sorted. Returns the
  /// first inconsistency, or "".
  std::string run_canary(bool force_failure) const;

  /// Rebinds the server to the manager's active generation and re-pins it.
  void bind_active();

  /// Clears the result cache when the active epoch is not the one the
  /// cache was filled under. Called only at *committed* transitions, so a
  /// rolled-back install never wipes still-valid entries.
  void sync_cache_epoch();

  ServerConfig config_;
  ChaosSchedule chaos_;
  SnapshotManager manager_;
  QueryServer server_;
  SnapshotManager::Pin serving_pin_;
  std::uint64_t submit_seq_ = 0;
  std::uint64_t drain_tick_ = 0;
  /// Epoch whose answers fill the result cache (0 = empty/neutral).
  std::uint64_t cache_epoch_ = 0;
};

}  // namespace gplus::serve
