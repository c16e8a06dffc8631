// Package core implements the ESG scheduler: the ESG_1Q configuration
// search (A* over stage-sequence configuration paths with dual-blade
// cost/time pruning, §3.3 and Appendix B), the dominator-distribution
// glue that turns an AFW queue into a group search, the locality-aware
// dispatch hooks, and the memoized PlanCache that makes re-planning
// cheap at production scale (every ESG plans through one).
//
// Invariants the rest of the repository relies on:
//
//   - Cached plans are read-only and capacity-frozen. A SearchResult
//     returned by PlanCache.Search is shared between the cache and every
//     past and future caller of the same key; both slice levels are
//     capacity-capped so appends copy, and CheckMutations/Integrity
//     detect in-place writes in tests.
//   - Search ties are content-deterministic. The kept top-K paths are
//     ordered by pathLess (cost, then time, then configurations), never
//     by arrival or heap-pop order, so either cache tier — exact hit or
//     feasibility-interval hit — returns byte-identical paths to a
//     fresh search at the same quantized input. Randomized equivalence
//     tests pin this.
//   - Quantization is conservative. Queue depths quantize exactly
//     (every depth in a bucket admits identical config lists); GSLO
//     targets floor to their bucket, so a reused plan is always at
//     least as tight as the target it answers. ESG's default 1 ns bucket
//     makes flooring the identity (FuzzPlanCacheExact pins it); wider
//     buckets (-plancache) are an approximation that can plan otherwise.
//   - The over-constrained fallback is shared and panic-free: when no
//     configuration passes the admissibility filter under the batch
//     bound, Search and the BruteForceSearch oracle both degrade through
//     the same overConstrainedFallback (filter first, batch bound
//     relaxed second), so ablations and the oracle agree.
package core
