// gplus CLI subcommand implementations.
//
// Each command takes raw argument strings and an output stream so the
// test suite can drive it in-process; the `gplus` binary is a thin
// dispatcher around run_command(). The dispatcher and its usage text are
// both generated from one command table (`commands()`), so adding a
// command means adding one table row — the help text can never drift from
// the dispatch again.
//
// Commands: generate, analyze, top, crawl, export, report (batch
// pipeline), plus snapshot (build/inspect serving snapshots),
// serve-bench (closed-loop load harness against the query server) and
// metrics (exercise the instrumented subsystems, dump the registry).
#pragma once

#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gplus::cli {

/// Generates a dataset and writes it to --out.
int cmd_generate(const std::vector<std::string>& args, std::ostream& out);

/// Loads a dataset and prints the structural + attribute summary.
int cmd_analyze(const std::vector<std::string>& args, std::ostream& out);

/// Loads a dataset and prints its top users (Table 1 style).
int cmd_top(const std::vector<std::string>& args, std::ostream& out);

/// Simulates a BFS crawl against the dataset and reports §2.2 statistics.
int cmd_crawl(const std::vector<std::string>& args, std::ostream& out);

/// Writes the full markdown reproduction report.
int cmd_report(const std::vector<std::string>& args, std::ostream& out);

/// Exports the dataset's edge list (text or binary).
int cmd_export(const std::vector<std::string>& args, std::ostream& out);

/// Builds a serving snapshot from a dataset, or inspects an existing one.
int cmd_snapshot(const std::vector<std::string>& args, std::ostream& out);

/// Runs the closed-loop query-serving load harness and reports
/// throughput, latency percentiles and cache statistics.
int cmd_serve_bench(const std::vector<std::string>& args, std::ostream& out);

/// Exercises the instrumented subsystems (crawl + serve) on a small
/// in-memory dataset and dumps the metrics registry as text or JSON;
/// deterministic metrics only unless --all.
int cmd_metrics(const std::vector<std::string>& args, std::ostream& out);

/// Directed triad analysis: exact/sampled census (--mode census) or
/// motif-calibrated rewiring toward a target profile (--mode calibrate).
int cmd_motifs(const std::vector<std::string>& args, std::ostream& out);

/// One dispatch-table row: name, one-line summary, entry point.
struct Command {
  std::string_view name;
  std::string_view summary;
  int (*run)(const std::vector<std::string>&, std::ostream&);
};

/// The full command table, in help order.
std::span<const Command> commands() noexcept;

/// Dispatches `gplus <command> ...`; prints usage (generated from the
/// command table) on unknown commands. Returns the process exit code.
int run_command(const std::vector<std::string>& args, std::ostream& out);

}  // namespace gplus::cli
