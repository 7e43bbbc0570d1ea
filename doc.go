// Package repro is a Go reproduction of "Towards Scalable Dataframe
// Systems" (Petersohn et al., VLDB 2020): the formal dataframe data model
// and algebra, a MODIN-style partition-parallel engine with a pandas-profile
// baseline, and a harness regenerating every table and figure in the
// paper's evaluation. The public API lives in repro/df; the root package
// holds only this overview. The benchmark is cmd/paperbench.
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
//	                                                         ▲
//	        exact base-frame sizes, groupby specs ───────────┘ (one build per join,
//	                                                            states vs rows)
//
// Logical plans (internal/algebra) are either evaluated bottom-up by one
// tree walk, algebra.EvalPlan, which applies algebra.Eval — every
// operator's single-node meaning, stated once — to each node and evaluates
// a shared sub-plan once (the single-threaded baseline, internal/eager, is
// that walk under a cell budget; MODIN runs it on the caller when its
// sources are in-memory frames of at most 4,096 rows in total and its bands
// are the default), or compiled into a physical stage DAG (internal/physical) by the MODIN
// engine (internal/modin) — embarrassingly-parallel operator chains fuse
// into one task per partition band; the hot repartition points (GROUPBY,
// SORT) lower to two-phase shuffles (summarize→plan→partition→merge; a
// groupby has no summary or plan: each band routes by key hash alone) and
// the ordered passes (inner/left JOIN and its renumber, FROMLABELS, bounded
// WINDOWs, LIMIT) to anchored shuffles whose band b reads band b and at most
// the bands before or after it, each emitting one
// independent future per output band; every shape-opaque operator without
// a partitioned lowering is one gather exchange that calls the same
// algebra.Eval on its gathered inputs and hands its output on as the
// engine's band count, so every stage's bands are known when the plan is
// scheduled — and
// scheduled asynchronously on the task-parallel execution layer
// (internal/exec). Partitioned frames (internal/partition) hold
// future-valued row bands, so results stay deferred until gathered; the
// session layer (internal/session) exploits this for the paper's
// opportunistic evaluation regime.
//
// Out-of-core streaming: the ScanCSV* sources lower to morsel-driven
// leaf stages (physical.StreamSource) instead of materialized frames. One
// boundary pass (core.CSVInput.FindBands) cuts the whole input into exact
// byte-range bands; each band parses from its own range and runs the
// stage's fused kernel chain as its own task, in parallel under a bounded
// parse-ahead window, and resolves a promise-backed block future. Every
// CSV read (a band, a cursor, a whole-file ReadCSV) runs one scanner in
// internal/core with encoding/csv's grammar and error texts; it copies out
// only the fields a band keeps, and encoding/csv is its test oracle.
// First-band latency is the boundary pass plus one band's parse. The
// cluster coordinator cuts a file with the same pass. Groupby shuffles
// route incrementally: each band partitions the moment it parses (bucket =
// stable key hash, identical in every band) and labels what it routes with
// its row positions (band<<32 | row); each bucket's merge records every
// group's first position, and a restore exchange interleaves the buckets
// by those positions into exact single-node group order. No band summary
// and no serial plan fold stand in between. Single-consumer scan bands
// are released as soon as a shuffle has routed them (a join routes no
// band: its left bands pass through its probe, its right side is gathered
// whole), and on such scans the producer holds its parse-ahead window
// against band RELEASE (routed, and past the budget spilled) rather than
// task completion, so slow routing stalls the parsers instead of
// accumulating bands.
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
// Plans are keyed by their binary form (algebra.EncodePlan: names stripped,
// sources as placeholders, literals kept to the bit), so equal queries from
// different sessions share materialized results when base-frame versions
// match; per-tenant cell budgets are enforced by admission control backed
// by each session's internal/storage store (an LRU cell budget over its
// resolved results), and a think-time scheduler drains idle sessions'
// opportunistic DAGs before admitting new heavy work. Failures classify
// via the typed sentinels (df.ErrBudgetExceeded, df.ErrSessionClosed,
// df.ErrUnknownColumn, ...) with errors.Is. cmd/dfreplay replays a
// notebook-corpus-derived multi-user trace against the server and reports
// p50/p99 latency and cache hit rate (BENCH_REPLAY.json).
//
// Distributed execution: internal/cluster moves the engine across process
// boundaries. cmd/dfworker processes execute fused stages and shuffle
// phases shipped over a length-prefixed columnar wire format serialized
// straight from internal/vector typed storage; the plan ships as the
// algebra.EncodePlan bytes the plan cache keys on, and workers run its
// chains through the compiler's band kernels (modin.BandKernel). A coordinator-side
// cluster.Scheduler implements the same engine surface df binds locally —
// plans whose operators cannot cross a process boundary (opaque Go
// closures, joins, windows) fall back to an embedded in-process engine
// — each fallback's reason is tallied in cluster Stats and reported by
// Query.Explain — and remote application errors re-run locally so
// callers always see the local results and error chains. Each query runs as
// self-contained attempts of two rounds: an attempt deals the bands
// round-robin to the live workers, then merges bucket b on band owner b
// mod owners (a sort's workers cut their held bands by the bounds the
// first merge or peer fetch carries); a worker lost mid-attempt is marked
// dead and the whole attempt re-runs its deterministic lineage (scan byte
// ranges + stage descriptors) on the survivors under a retry budget. A
// worker drops a query's state on Release or when the coordinator
// connection that installed it closes. The df layer
// selects the backend from the environment (DF_CLUSTER_WORKERS=n for
// in-process workers, DF_CLUSTER_ADDRS=a,b for external dfworker
// processes), so the whole suite runs both ways.
//
// Vectorized kernels: the operator inner loops run on typed bulk kernels
// (internal/vector) rather than boxing cells into types.Value or rendering
// them to string keys. Row identity in GROUPBY, JOIN, DROP-DUPLICATES,
// DIFFERENCE and the shuffle routing plan is a 64-bit hash over the typed
// key columns (vector.HashRows) with typed-equality verification on
// collisions, and one GROUPBY kernel (algebra.GroupPartial) looks a
// dictionary-coded key up once per distinct code, by value, and keeps flat
// typed state for COUNT/SIZE/SUM/MEAN/MIN/MAX; SORT (a radix sort,
// vector.Order), TOPK and the range shuffle's run merge (vector.MergeRuns)
// order rows by order-preserving uint64 words that vector.NewSortKey reads
// from each key column's storage, falling back to vector.CompareRows only
// for keys with no word form (Object strings, boxed columns) or runs whose
// words do not compare; and
// structured SELECTION predicates (expr.Where, built by df.Where) execute
// through the typed filter kernels (vector.Filter*). Opaque func(Row) bool
// predicates keep the row-at-a-time path, and expr.Where.Predicate() is the
// transparent fallback wherever only a predicate is understood — the
// kernels change nothing about ordered-dataframe semantics (group
// first-appearance order, stable sort ties, nested join order).
//
// Physical strategy from exact sizes: the compile step picks strategies
// from facts, not sketches. Every inner/left join, on columns or labels,
// is one anchored probe: its plan task gathers the right side and builds
// one algebra.JoinTable over it, presized for its rows, and each left
// band's merge joins against that shared, read-only table with the call
// the eager engine's JoinFrames makes, so output band b lines up with left
// band b and no row is routed; a data-column join then renumbers band b
// from the row counts of bands 0…b−1, which its merge reads directly; its
// explain line reports the build size (a
// base frame's exact row count, or optimizer.EstimateNode's zero-stats
// model above one). A groupby
// whose aggregates all combine exactly (COUNT, SIZE, MIN, MAX) folds each
// band into one algebra.GroupPartial and routes one state row per group;
// any other groupby routes rows, because a float SUM or MEAN added up from
// band partials is reassociated. Each bucket merges as one fold in band
// order, so its groups appear in ascending first position and the restore
// needs nothing else; the cluster runs the same partition, merge and
// restore (workers route under the global band index, the coordinator
// restores). Query.Explain appends the chosen strategies with the sizes
// that drove them.
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
// once it is routed. An exchange's task resolves one promise per band it
// hands on, so a stage downstream of an exchange is wired when the plan is
// scheduled, one task per band, like any other stage.
//
// Scheduler instrumentation: each run's physical.Scheduler exposes Stats
// counters — FusedTasks/FusedStages for fused chains,
// ExchangeTasks/ExchangeStages for gather barriers, and the shuffle-phase
// counters ShuffleStages, ShuffleSummaryTasks, ShufflePlanTasks,
// ShufflePartitionTasks (one per input band), ShuffleMergeTasks (one per
// OUTPUT band; each backs its own block future); every counter is final
// when Run returns. ShuffleFallbacks is always 0.
// modin.Engine.Stats() totals only released stream bands and spilled pieces.
// See README.md for the full map.
package repro
