#!/usr/bin/env sh
# Builds the parallel-runtime test binaries under ThreadSanitizer and runs
# them. Usage: tools/run_tsan.sh [build-dir]
#
# TSan catches the races a serial-equivalence test cannot: unsynchronized
# pool state, kernels writing overlapping slots, etc. The same script works
# for the other sanitizers via GPLUS_SANITIZE=address|undefined.
set -eu

SANITIZER="${GPLUS_SANITIZE:-thread}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
# Default to an absolute path inside the repo so the build lands under the
# gitignored build*/ pattern no matter where the script is invoked from.
BUILD_DIR="${1:-$SRC_DIR/build-$SANITIZER}"
TARGETS="test_parallel test_parallel_equivalence test_bfs test_degrees test_kcore_pagerank test_communities test_serve test_serve_equivalence test_intersect test_motifs test_rewire test_suggest test_triangles_anf test_reciprocity test_clustering test_algo_pinned test_snapshot test_snapshot_equivalence test_snapshot_stats test_serve_chaos test_cluster test_cluster_equivalence test_transport test_obs test_golden_trace"
# Lane-equivalence binaries get a second pass pinned to one lane, so the
# serial fallback is sanitized too (mirrors the CTest ".threads1" variants).
SINGLE_THREAD_TARGETS="test_cluster test_cluster_equivalence test_serve_equivalence test_motifs test_snapshot_stats test_rewire test_suggest test_transport test_algo_pinned test_bfs"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DGPLUS_SANITIZE="$SANITIZER" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086  # TARGETS is intentionally word-split
cmake --build "$BUILD_DIR" -j "$(nproc)" --target $TARGETS

status=0
for t in $TARGETS; do
  echo "== $SANITIZER: $t =="
  "$BUILD_DIR/tests/$t" || status=1
done
for t in $SINGLE_THREAD_TARGETS; do
  echo "== $SANITIZER: $t (GPLUS_THREADS=1) =="
  GPLUS_THREADS=1 "$BUILD_DIR/tests/$t" || status=1
done
exit $status
