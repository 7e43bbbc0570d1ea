// Package repro is a Go reproduction of "Towards Scalable Dataframe
// Systems" (Petersohn et al., VLDB 2020): the formal dataframe data model
// and algebra, a MODIN-style partition-parallel engine with a pandas-profile
// baseline, and a harness regenerating every table and figure in the
// paper's evaluation. The public API lives in repro/df; the root package
// only anchors the module-level benchmark suite (bench_test.go).
//
// Execution architecture: the public surface (repro/df) builds logical
// plans through one code path — the lazy Query builder ((*DataFrame).Lazy,
// ScanCSV*), of which the eager methods are one-step sugar. A terminal verb
// (Collect/CollectAsync/Explain/Count/First) runs the accumulated plan
// through the optimizer's rewrite rules (internal/optimizer: MAP fusion,
// projection pushdown below Map/Selection/Sort/Rename, column pruning of
// GROUPBY inputs — the projection it creates sinks through structured
// filters to the leaf, where a streamed scan's cursor materializes only
// the kept columns — transpose and induction placement, sorted-groupby,
// limit-sort→TOPK) exactly once, then hands the optimized plan to an
// engine:
//
//	df.Query ──optimizer.Optimize──▶ algebra.Node ──compile──▶ physical DAG ──schedule──▶ exec.Pool
//	                                       ▲
//	            internal/stats sketches ───┘ (per-column stats steer the compile step's
//	                                          broadcast-vs-shuffle and cut decisions)
//
// Logical plans (internal/algebra) are either evaluated bottom-up by the
// single-threaded baseline (internal/eager) or compiled into a physical
// stage DAG (internal/physical) by the MODIN engine (internal/modin) — embarrassingly-parallel operator chains fuse
// into one task per partition band; the hot repartition points (GROUPBY,
// SORT, inner/left JOIN) lower to two-phase shuffles
// (summarize→plan→partition→merge; groupby partitions route from their
// band's own summary without waiting for the plan) emitting one
// independent future per output band; shape-opaque operators keep
// gather-exchange barriers — and
// scheduled asynchronously on the task-parallel execution layer
// (internal/exec). Partitioned frames (internal/partition) hold
// future-valued blocks, so results stay deferred until gathered; the
// session layer (internal/session) exploits this for the paper's
// opportunistic evaluation regime.
//
// Out-of-core streaming: the ScanCSV* sources lower to morsel-driven
// leaf stages (physical.StreamSource) instead of materialized frames. A
// producer goroutine parses the input band-by-band under a bounded
// parse-ahead window (the first band synchronously, so first-band
// latency is independent of input size), each band runs the stage's
// fused kernel chain as its own task and resolves a promise-backed block
// future. Groupby shuffles route incrementally: each band partitions
// from its own key summary the moment it parses (bucket = stable key
// hash, identical in every band), the global plan — exact
// first-appearance group order, heavy-bucket flags — gates only the
// merges, and routed pieces carry a rank column that a restore exchange
// folds back into exact single-node row order. Single-consumer scan
// bands are released as soon as a shuffle has routed them, and on such
// scans the producer holds its parse-ahead window against band RELEASE
// (routed, and past the budget spilled) rather than task completion, so
// slow routing stalls the parser instead of accumulating bands.
// Routed-but-unmerged shuffle pieces past modin.WithShuffleSpillBudget
// spill through internal/storage and re-resolve lazily inside the merge
// task that consumes them; cancellation routes through
// modin.Engine.ReleaseSpill so no spill files outlive a failed query.
// A raw column is induced and parsed in one pass (internal/schema), once,
// in the task of the band that first reads it; shuffles resolve their key
// and aggregate columns on the band and cut pieces from the resolved band
// (core.DataFrame.Resolved), so merges, spill files and cluster blocks
// carry typed vectors — in the one block format, core.EncodeFrame, that
// the wire and the spill store share — and nothing is parsed twice.
// Stacked SELECTIONs inside a fused chain narrow one shared selection
// vector and coalesce once at stage exit. Resident memory is therefore
// bounded by window x band size + distinct keys + spill budget, not
// input size — with or without a filter; cmd/streamsmoke gates both
// shapes end-to-end in CI by streaming a file several times GOMEMLIMIT
// through filter->groupby and a pass-through groupby while sampling
// peak HeapAlloc. Scan open/parse failures are sticky query errors
// wrapping df.ErrScanSource.
//
// Serving: one step above the session sits the multi-tenant server
// (internal/server, cmd/dfserver), which exposes the minimal session
// surface (df.SessionAPI: Bind/Query/ThinkTime/Close) 1:1 over JSON/HTTP
// and multiplexes many concurrent users over shared engines:
//
//	wire ops ──BuildQuery──▶ df.Query ──Optimize──▶ optimizer.Fingerprint ──▶ PlanCache
//	                                                     │ hit: cached result │ miss: compile+run
//	                         tenant admission (budget → spill → queue → ErrBudgetExceeded)
//
// Post-optimizer plans are canonicalized (names stripped, sources as
// positional placeholders, literals kept) so fingerprint-equal queries from
// different sessions share compiled physical DAGs and — when base-frame
// versions match — materialized results; per-tenant cell budgets are
// enforced by admission control backed by the session spill machinery
// (internal/storage), and a think-time scheduler drains idle sessions'
// opportunistic DAGs before admitting new heavy work. Failures classify
// via the typed sentinels (df.ErrBudgetExceeded, df.ErrSessionClosed,
// df.ErrUnknownColumn, ...) with errors.Is. cmd/dfreplay replays a
// notebook-corpus-derived multi-user trace against the server and reports
// p50/p99 latency and cache hit rate (BENCH_REPLAY.json).
//
// Distributed execution: internal/cluster moves the engine across process
// boundaries. cmd/dfworker processes execute fused stages and shuffle
// phases shipped over a length-prefixed columnar wire format serialized
// straight from internal/vector typed storage; the plan on the wire is the
// expr spec itself (*expr.Where, expr.GroupBySpec, the Sort order), with
// scalars in the one binary form internal/types defines. A coordinator-side
// cluster.Scheduler implements the same engine surface df binds locally —
// plans whose operators cannot cross a process boundary (opaque Go
// closures, joins, windows) fall back to an embedded in-process engine
// — each fallback's reason is tallied in cluster Stats and reported by
// Query.Explain — and remote application errors re-run locally so
// callers always see the local results and error chains. Band tasks are assigned round-robin;
// shuffle merges are placed on the worker holding the most bytes of their
// bucket; a dead worker's bands are re-submitted as deterministic lineage
// (scan byte ranges + stage descriptors) to the survivors under a retry
// budget. The df layer selects the backend from the environment
// (DF_CLUSTER_WORKERS=n for in-process workers, DF_CLUSTER_ADDRS=a,b for
// external dfworker processes), so the whole suite runs both ways.
//
// Vectorized kernels: the operator inner loops run on typed bulk kernels
// (internal/vector) rather than boxing cells into types.Value or rendering
// them to string keys. Row identity in GROUPBY, JOIN, DROP-DUPLICATES,
// DIFFERENCE and the shuffle routing plan is a 64-bit hash over the typed
// key columns (vector.HashRows) with typed-equality verification on
// collisions; SORT/TOPK compare storage slices via vector.CompareRows; and
// structured SELECTION predicates (expr.Where, built by df.Where) execute
// through the typed filter kernels (vector.Filter*). Opaque func(Row) bool
// predicates keep the row-at-a-time path, and expr.Where.Predicate() is the
// transparent fallback wherever only a predicate is understood — the
// kernels change nothing about ordered-dataframe semantics (group
// first-appearance order, stable sort ties, nested join order).
//
// Statistics-driven strategy: the MODIN engine collects per-column
// statistics (counts, nulls, min/max, HyperLogLog distinct sketches —
// internal/sketch, internal/stats) bulk-wise from typed storage at scan
// boundaries, memoized per base frame and mergeable across partitions.
// optimizer.Estimator reads them through the SourceStats interface, and
// the compile step uses the estimates to pick physical strategies: joins
// whose build side exceeds the broadcast limit become key-shuffled hash
// joins, dictionary-coded group keys aggregate directly on int32 codes
// with typed accumulators, and skewed groupby shuffles weigh their cuts
// by per-key row volume (isolating Zipf-head keys in their own buckets).
// Query.Explain appends the chosen strategies with the estimates that
// drove them; modin.WithoutStats() restores the zero-stats plans
// (broadcast joins, even cuts) exactly.
//
// One boundary between the algebra and the execution layer: the per-run
// physical.Scheduler is the only code that calls a stage's hooks — fused
// kernels, exchange bodies, and a shuffle's Summarize/Plan/Partition/Merge.
// Stages carry the logical operator's Describe() text and the scheduler
// puts it, with the stage's name and phase, in front of a hook's failure.
// A shuffle's Partition returns frames and its Merge receives
// physical.Piece handles; when the engine has a spill budget the scheduler
// admits every routed piece through the engine's piece store (resident
// under the budget, on disk past it) and releases each streamed input band
// once it is routed. A stage downstream of an exchange, whose input shape
// is unknown at schedule time, is wired late: once the input frame lands it
// gets the same per-band tasks as any other stage, behind one future.
//
// Scheduler instrumentation: each run's physical.Scheduler exposes Stats
// counters — FusedTasks/FusedStages for fused chains,
// ExchangeTasks/ExchangeStages for gather barriers, and the shuffle-phase
// counters ShuffleStages, ShuffleSummaryTasks, ShufflePlanTasks,
// ShufflePartitionTasks (one per input band), ShuffleMergeTasks (one per
// OUTPUT band; each backs its own block future) and ShuffleFallbacks
// (shuffles wired late over a shape-opaque input: real per-band tasks,
// but one output future, so still a barrier to their consumer).
// modin.Engine.Stats() aggregates the counters across runs.
// See README.md for the full map.
package repro
