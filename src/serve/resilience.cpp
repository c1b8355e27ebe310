#include "serve/resilience.h"

#include <stdexcept>

#include "stats/rng.h"

namespace gplus::serve {

std::uint64_t chaos_word(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t salt) noexcept {
  std::uint64_t state = seed;
  state ^= stats::splitmix64_next(state) + stream;
  state ^= stats::splitmix64_next(state) + salt;
  return stats::splitmix64_next(state);
}

double chaos_unit(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t salt) noexcept {
  return static_cast<double>(chaos_word(seed, stream, salt) >> 11) * 0x1.0p-53;
}

namespace {

std::uint32_t payload_u32(const Response& r, std::size_t at) noexcept {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(r.payload[at + i]) << (8 * i);
  }
  return v;
}

std::uint64_t payload_u64(const Response& r, std::size_t at) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(r.payload[at + i]) << (8 * i);
  }
  return v;
}

}  // namespace

// --- SnapshotManager ------------------------------------------------------

SnapshotManager::Pin::Pin(Generation* gen) noexcept : gen_(gen) {
  if (gen_ != nullptr) ++gen_->refs;
}

void SnapshotManager::Pin::release() noexcept {
  if (gen_ != nullptr) {
    --gen_->refs;
    gen_ = nullptr;
  }
}

const SnapshotView* SnapshotManager::Pin::view() const noexcept {
  return gen_ != nullptr ? gen_->view.get() : nullptr;
}

std::uint64_t SnapshotManager::Pin::epoch() const noexcept {
  return gen_ != nullptr ? gen_->epoch : 0;
}

std::string SnapshotManager::validate(const SnapshotBuffer& candidate) {
  try {
    const SnapshotView view(candidate.bytes());
    view.verify_sections();
  } catch (const std::exception& defect) {
    return defect.what();
  }
  return "";
}

std::uint64_t SnapshotManager::install(SnapshotBuffer candidate) {
  auto gen = std::make_unique<Generation>();
  gen->buffer = std::move(candidate);
  gen->view = std::make_unique<SnapshotView>(gen->buffer.bytes());
  gen->epoch = next_epoch_++;
  Generation* raw = gen.get();
  generations_.push_back(std::move(gen));
  previous_ = active_;
  active_ = raw;
  reap();
  return raw->epoch;
}

void SnapshotManager::kill_active() {
  if (active_ == nullptr) return;
  previous_ = active_;
  active_ = nullptr;
  reap();
}

bool SnapshotManager::rollback() {
  if (previous_ == nullptr) return false;
  active_ = previous_;
  previous_ = nullptr;
  reap();
  return true;
}

const SnapshotView* SnapshotManager::active() const noexcept {
  return active_ != nullptr ? active_->view.get() : nullptr;
}

std::uint64_t SnapshotManager::epoch() const noexcept {
  return active_ != nullptr ? active_->epoch : 0;
}

SnapshotManager::Pin SnapshotManager::pin_active() noexcept {
  return Pin(active_);
}

void SnapshotManager::reap() {
  std::erase_if(generations_, [&](const std::unique_ptr<Generation>& gen) {
    return gen.get() != active_ && gen.get() != previous_ && gen->refs == 0;
  });
}

// --- ChaosSchedule --------------------------------------------------------

ChaosSchedule::RequestEvents ChaosSchedule::request_events(
    std::uint64_t seq) const noexcept {
  RequestEvents events;
  if (config_.fault_rate > 0.0) {
    events.fault = chaos_unit(config_.seed, seq, /*salt=*/0) < config_.fault_rate;
  }
  if (config_.slow_rate > 0.0) {
    events.slow = chaos_unit(config_.seed, seq, /*salt=*/1) < config_.slow_rate;
  }
  return events;
}

std::size_t ChaosSchedule::pressure(std::uint64_t tick) const noexcept {
  if (config_.pressure_rate <= 0.0) return 0;
  return chaos_unit(config_.seed, tick, /*salt=*/2) < config_.pressure_rate
             ? config_.pressure_capacity
             : 0;
}

// --- ResilientServer ------------------------------------------------------

ResilientServer::ResilientServer(ServerConfig config, ChaosConfig chaos)
    : config_(config), chaos_(chaos), server_(nullptr, config) {
  server_.set_queue_pressure(chaos_.pressure(0));
}

ServeStatus ResilientServer::submit(const Request& request) {
  const ChaosSchedule::RequestEvents events =
      chaos_.request_events(submit_seq_++);
  Request shaped = request;
  if (events.slow) shaped.cost_budget = chaos_.config().slow_budget;
  return server_.submit(shaped, events.fault);
}

void ResilientServer::drain(std::vector<Response>& responses) {
  server_.drain(responses);
  ++drain_tick_;
  server_.set_queue_pressure(chaos_.pressure(drain_tick_));
}

void ResilientServer::bind_active() {
  serving_pin_ = manager_.pin_active();
  server_.rebind(serving_pin_.view());
}

void ResilientServer::sync_cache_epoch() {
  const std::uint64_t epoch = manager_.epoch();
  if (epoch != 0 && epoch != cache_epoch_) {
    server_.cache().clear();
    cache_epoch_ = epoch;
  }
}

InstallReport ResilientServer::install(SnapshotBuffer candidate,
                                       bool force_canary_failure) {
  InstallReport report;
  report.epoch = manager_.epoch();
  if (server_.queued() != 0) {
    report.error = "install: queue not drained";
    return report;
  }
  const std::string defect = SnapshotManager::validate(candidate);
  if (!defect.empty()) {
    report.error = "validate: " + defect;
    return report;
  }
  manager_.install(std::move(candidate));
  bind_active();
  const std::string canary = run_canary(force_canary_failure);
  if (!canary.empty()) {
    manager_.rollback();
    bind_active();
    manager_.reap();  // the rolled-away candidate is unpinned now
    sync_cache_epoch();
    report.rolled_back = true;
    report.error = canary;
    report.epoch = manager_.epoch();
    return report;
  }
  sync_cache_epoch();
  report.installed = true;
  report.epoch = manager_.epoch();
  return report;
}

void ResilientServer::kill_active() {
  manager_.kill_active();
  bind_active();
  manager_.reap();
  // No cache sync: degraded mode *wants* the old entries (kStaleCache).
}

bool ResilientServer::rollback() {
  if (!manager_.rollback()) return false;
  bind_active();
  manager_.reap();
  sync_cache_epoch();
  return true;
}

std::string ResilientServer::run_canary(bool force_failure) const {
  if (force_failure) return "canary: forced failure";
  const RequestEngine* engine = server_.engine();
  if (engine == nullptr) return "canary: no engine bound";
  const std::size_t n = engine->snapshot().node_count();
  if (n == 0) return "canary: empty snapshot";

  Response profile;
  Response degrees;
  Response circle;
  const graph::NodeId ids[3] = {0, static_cast<graph::NodeId>(n / 2),
                                static_cast<graph::NodeId>(n - 1)};
  for (const graph::NodeId id : ids) {
    Request q;
    q.user = id;
    q.type = RequestType::kGetProfile;
    engine->execute(q, profile);
    if (profile.status != ServeStatus::kOk || profile.payload.size() != 32) {
      return "canary: profile probe failed";
    }
    if (payload_u32(profile, 0) != id) return "canary: profile echoes wrong id";
    q.type = RequestType::kDegree;
    engine->execute(q, degrees);
    if (degrees.status != ServeStatus::kOk || degrees.payload.size() != 16) {
      return "canary: degree probe failed";
    }
    if (payload_u64(degrees, 0) != payload_u64(profile, 16) ||
        payload_u64(degrees, 8) != payload_u64(profile, 24)) {
      return "canary: degree disagrees with profile";
    }
    q.type = RequestType::kGetOutCircle;
    engine->execute(q, circle);
    if (circle.status != ServeStatus::kOk || circle.payload.size() < 16) {
      return "canary: circle probe failed";
    }
    if (circle.payload.size() !=
        16 + std::size_t{payload_u32(circle, 8)} * 4) {
      return "canary: circle page malformed";
    }
  }

  Request q;
  q.type = RequestType::kTopK;
  q.limit = 10;
  Response topk;
  engine->execute(q, topk);
  if (topk.status != ServeStatus::kOk || topk.payload.size() < 4) {
    return "canary: top-k probe failed";
  }
  const std::uint32_t count = payload_u32(topk, 0);
  if (topk.payload.size() != 4 + std::size_t{count} * 12) {
    return "canary: top-k malformed";
  }
  std::uint64_t prev = ~std::uint64_t{0};
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t deg = payload_u64(topk, 4 + std::size_t{i} * 12 + 4);
    if (deg > prev) return "canary: top-k not sorted";
    prev = deg;
  }

  // Suggest probe: friend-of-friend candidates for the middle user must
  // come back well-formed (header + 24-byte entries, emitted <= found,
  // reciprocation scores within the [0, 1000] milli range).
  q.type = RequestType::kSuggest;
  q.user = ids[1];
  q.limit = 8;
  Response suggest;
  engine->execute(q, suggest);
  if (suggest.status != ServeStatus::kOk || suggest.payload.size() < 16) {
    return "canary: suggest probe failed";
  }
  const std::uint32_t found = payload_u32(suggest, 0);
  const std::uint32_t emitted = payload_u32(suggest, 4);
  if (emitted > found || emitted > q.limit ||
      suggest.payload.size() != 16 + std::size_t{emitted} * 24) {
    return "canary: suggest page malformed";
  }
  for (std::uint32_t i = 0; i < emitted; ++i) {
    const std::size_t at = 16 + std::size_t{i} * 24;
    if (payload_u32(suggest, at) >= n) return "canary: suggest id out of range";
    if (payload_u32(suggest, at + 12) > 1000) {
      return "canary: suggest reciprocation score out of range";
    }
  }
  return "";
}

}  // namespace gplus::serve
