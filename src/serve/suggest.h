// kSuggest: friend-of-friend recommendation serving (DESIGN.md §14).
//
// The paper's structural findings — low reciprocity, a hub-dominated
// in-degree tail — are exactly the local features Gong & Xu (PAPERS.md)
// show predict which directed edges become reciprocal. This module turns
// that into the serving system's first compute-heavy endpoint: 2-hop
// friend-of-friend candidate generation over snapshot adjacency, ranked
// by Adamic-Adar / common-neighbor evidence, each suggestion carrying a
// reciprocation-likelihood score from mutual-neighbor count (the shared
// intersection kernels, algo/intersect.h), in/out degree balance and
// hub-ness relative to the degree-rank extreme.
//
// Determinism contract: the candidate walk visits out(u) in ascending id
// order and scans each 2-hop row in ascending id order; Adamic-Adar
// accumulates in that fixed order and is frozen to micro-unit fixed point
// before ranking; ranking is the total order (aa desc, cn desc, id asc).
// Payload bytes are therefore identical across intersection-kernel
// variants (same counts by the kernel contract), GPLUS_THREADS values
// (execution is pure), v2-vs-v3 snapshots (NeighborScan yields the same
// lists) and K=1-vs-K=4 clusters (the shard row source reads owned rows,
// which are bit-equal to the unsharded snapshot).
//
// Cost model (virtual clock): 1 unit per 1-hop neighbor expanded, 1 per
// 2-hop edge scanned, 1 per suggestion scored+emitted — on top of the
// engine's 1-unit dispatch charge, which the caller makes. A deadline
// mid-generation truncates the walk, ranks what exists, and flags the
// response partial; a deadline mid-emission patches the emitted count
// exactly like circle pages.
#pragma once

#include <cstdint>

#include "serve/engine.h"

namespace gplus::serve {

/// Payload layout (little-endian): candidates u32, count u32,
/// scanned u64, then count × 24-byte entries
/// (node u32, common u32, mutual u32, recip_milli u32, adamic_adar_micro u64).
inline constexpr std::size_t kSuggestHeaderBytes = 16;
inline constexpr std::size_t kSuggestEntryBytes = 24;

/// The one Suggest core, instantiated for the engine's SingleSource and
/// the cluster's ShardSource (serve/row_source.h). `max_in_degree` is the
/// global maximum in-degree, the hub feature's normalizer
/// (format-independent, unlike raw rank, so v2 and v3 answers stay
/// bit-identical). `meter` must already carry the engine's 1-unit
/// dispatch charge; the caller owns status/cost bookkeeping around it.
/// A blocked owner degrades the answer (its flag bits |
/// kResponsePartial) instead of failing it. The shard source counts one
/// message per distinct owner shard touched per phase (root fetch, 2-hop
/// expansion, candidate scoring).
template <typename Rows>
void suggest_core(Rows& rows, const EngineConfig& config,
                  std::uint64_t max_in_degree, const Request& request,
                  Response& response, RequestEngine::Meter& meter);

}  // namespace gplus::serve
