#pragma once

// Process-wide deterministic metrics registry.
//
// Two kinds of counter live here. A Counter is owned by the registry and
// written by any thread: the crawler, the parallel runtime and the serve
// status tallies use these. A CounterStore is a block of counter cells
// owned by one instance (a QueryServer, its cache, a ClusterServer, a
// FaultyTransport) and written by that instance's coordinator only; the
// instance builds its stats struct from the cells, and the registry
// exports each cell under a name. A name's value is its Counter (if any)
// plus every live cell exported under it plus a retired total: an
// instance's counts move into the retired total when the store is
// destroyed or reset(), so process totals stay monotonic while each
// instance still reports only its own counts. Every count is kept once.
//
// Determinism contract: a Counter is a fixed array of cache-line-padded
// atomic cells indexed by a thread-local slot. Writers touch only their own
// cell with relaxed atomics (no locks, no sharing), and value() sums the
// cells on read. Integer addition is commutative, so the merged total is
// bit-identical no matter how many threads contributed or in what order —
// the same guarantee the parallel runtime gives its reduction trees.
// Histograms shard their buckets the same way. Gauges are single atomics
// written from the coordinator thread by convention (last write wins, and
// coordinator writes are deterministically ordered).
//
// Thread safety: every cell, shared or instance-owned, is an atomic, so a
// snapshot() taken on any thread while other threads count is race-free
// (TSan-clean). Registration, export, retirement and snapshot() serialize
// on the registry mutex, so a snapshot never sees a count twice or loses
// one that is moving into a retired total.
//
// Metrics that genuinely depend on scheduling (chunks stolen by pool
// workers, threads spawned) are tagged Determinism::kRunDependent and can be
// filtered out of snapshots, which is what lets a full JSON dump be
// byte-identical between GPLUS_THREADS=1 and GPLUS_THREADS=8.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gplus::obs {

enum class Determinism : std::uint8_t {
  kDeterministic = 0,  // identical at any GPLUS_THREADS; safe to golden-test
  kRunDependent = 1,   // depends on scheduling; excluded from golden dumps
};

namespace detail {

// Cell count is a fixed power of two so slot assignment is a cheap mask and
// totals never depend on how many threads exist.
inline constexpr std::size_t kCells = 16;

struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
};

// Stable per-thread cell index in [0, kCells). Two threads may share a slot
// under heavy oversubscription; that only costs contention, never accuracy.
std::size_t cell_slot() noexcept;

}  // namespace detail

/// Monotonic counter. add() is wait-free and race-free from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[detail::cell_slot()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const detail::Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<detail::Cell, detail::kCells> cells_{};
};

/// Last-write-wins level. By convention written from the coordinator thread
/// (so reads are deterministic); the atomic keeps racy misuse benign.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integer values. Bucket i counts
/// values <= bounds[i]; one implicit overflow bucket counts the rest. Bucket
/// counts and the value sum are sharded like Counter cells, so merged totals
/// are bit-identical at any thread count.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void record(std::uint64_t value) noexcept;

  const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  /// Merged per-bucket counts; size() == bounds().size() + 1.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;

 private:
  std::vector<std::uint64_t> bounds_;
  // Layout: [slot][bucket] so a writer stays inside its own cache lines.
  std::vector<detail::Cell> cells_;
  std::array<detail::Cell, detail::kCells> sum_cells_{};
};

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

std::string_view metric_kind_name(MetricKind kind) noexcept;

/// Point-in-time copy of every registered metric, keyed by name (sorted).
/// The uniform testing idiom is snapshot-before / run / snapshot-after /
/// assert on the delta, which keeps tests independent of whatever earlier
/// tests in the same process already pushed through the global registry.
struct MetricsSnapshot {
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    Determinism determinism = Determinism::kDeterministic;
    std::int64_t value = 0;               // counter total or gauge level
    std::uint64_t sum = 0;                // histogram value sum
    std::uint64_t count = 0;              // histogram sample count
    std::vector<std::uint64_t> bounds;    // histogram bucket upper bounds
    std::vector<std::uint64_t> buckets;   // histogram counts (bounds + overflow)
  };

  std::map<std::string, Entry> entries;

  /// Counter/gauge value (histogram: sample count); 0 if the name is absent.
  std::int64_t value(std::string_view name) const;
  bool contains(std::string_view name) const;
};

/// after - before. Counters and histograms subtract (entries absent from
/// `before` pass through whole); gauges are levels, so the delta keeps the
/// `after` value. Entries only present in `before` are dropped.
MetricsSnapshot delta(const MetricsSnapshot& after, const MetricsSnapshot& before);

class CounterStore;

class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem registers into.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric with this name, creating it on first use. The
  /// reference stays valid for the registry's lifetime (metrics are never
  /// removed). Throws std::logic_error if the name is already registered
  /// with a different kind, determinism tag, or histogram bounds.
  Counter& counter(std::string_view name,
                   Determinism det = Determinism::kDeterministic);
  Gauge& gauge(std::string_view name,
               Determinism det = Determinism::kDeterministic);
  Histogram& histogram(std::string_view name, std::vector<std::uint64_t> bounds,
                       Determinism det = Determinism::kDeterministic);

  MetricsSnapshot snapshot(bool deterministic_only = false) const;
  std::size_t size() const;

 private:
  friend class CounterStore;

  struct Metric {
    MetricKind kind;
    Determinism determinism;
    std::unique_ptr<Counter> counter;  // counter kind: created by counter()
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    // Counter kind: instance cells exported under this name, and the
    // counts of cells already retired.
    std::vector<const std::atomic<std::uint64_t>*> cells;
    std::uint64_t retired = 0;
  };

  /// Finds or creates counter `name` tagged `det`; throws like counter()
  /// on a mismatch. The caller holds mutex_.
  Metric& counter_metric(std::string_view name, Determinism det);

  mutable std::mutex mutex_;
  // Node-based map: references handed out stay stable across insertions.
  std::map<std::string, Metric, std::less<>> metrics_;
};

/// One field of a stats struct kept in a CounterStore, and the name (after
/// the owner's prefix) the registry exports its cell under. A component
/// lists its fields once, in a table whose row i is cell i.
template <typename Stats>
struct CounterField {
  std::string_view name;
  std::uint64_t Stats::*member;
};

/// Row of `member` in `fields`. Used in constant expressions at increment
/// sites, so a field missing from the table fails to compile.
template <typename Stats, std::size_t N>
constexpr std::size_t cell_of(const CounterField<Stats> (&fields)[N],
                              std::uint64_t Stats::*member) {
  for (std::size_t i = 0; i < N; ++i) {
    if (fields[i].member == member) return i;
  }
  throw std::logic_error("obs: field is not in the counter table");
}

/// An instance's counters: a fixed block of single-writer cells (see the
/// header comment). Cells live on the heap, so a moved store keeps every
/// exported address, and the moved-from store is left with no exports to
/// retire. The owner's coordinator is the only writer, so add()
/// is a relaxed load and store, no read-modify-write; the atomics are what
/// make reads from other threads race-free.
class CounterStore {
 public:
  explicit CounterStore(std::size_t cells,
                        MetricsRegistry& registry = MetricsRegistry::global());
  /// Retires every exported count into its name's total.
  ~CounterStore();
  CounterStore(CounterStore&&) noexcept = default;
  CounterStore& operator=(CounterStore&&) = delete;

  void add(std::size_t cell, std::uint64_t n = 1) noexcept {
    cells_[cell].store(value(cell) + n, std::memory_order_relaxed);
  }
  std::uint64_t value(std::size_t cell) const noexcept {
    return cells_[cell].load(std::memory_order_relaxed);
  }

  /// Exports `cell` as a deterministic counter named `name` (created on
  /// first use). One cell may be exported under several names.
  void export_cell(std::size_t cell, std::string_view name);
  /// Exports row i of `fields` as prefix + fields[i].name.
  template <typename Stats, std::size_t N>
  void export_fields(const CounterField<Stats> (&fields)[N],
                     std::string_view prefix) {
    for (std::size_t i = 0; i < N; ++i) {
      export_cell(i, std::string(prefix) + std::string(fields[i].name));
    }
  }
  bool exported() const noexcept { return !exports_.empty(); }

  /// Copies cell i into the field row i of `fields` names.
  template <typename Stats, std::size_t N>
  void read_fields(const CounterField<Stats> (&fields)[N], Stats& out) const {
    for (std::size_t i = 0; i < N; ++i) out.*fields[i].member = value(i);
  }
  /// Copies cells [first, first + K) into `out`.
  template <std::size_t K>
  void read_array(std::size_t first,
                  std::array<std::uint64_t, K>& out) const {
    for (std::size_t k = 0; k < K; ++k) out[k] = value(first + k);
  }

  /// Moves every exported count into its name's retired total and zeroes
  /// every cell: the instance then reads as freshly built, while the
  /// registry totals do not move.
  void reset();

 private:
  struct Export {
    MetricsRegistry::Metric* metric;
    std::size_t cell;
  };

  MetricsRegistry* registry_;
  std::size_t cell_count_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  std::vector<Export> exports_;
};

}  // namespace gplus::obs
