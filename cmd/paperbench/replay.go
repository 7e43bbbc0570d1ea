package main

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

// replayer walks a statement's optimized plan and calls each layer's public
// kernel directly, single-threaded, on the statement's own bands, in the
// structure the MODIN engine gives the operator (per-band summarize →
// route → per-bucket merge → restore for a groupby, and so on). Each call's
// time is added to its layer metric; calls that stand for work the engine
// does on a pass also count as busy time, the numerator of
// exec.parallel_efficiency. Probes of sub-kernels (vector.hash_ms,
// vector.filter_ms, algebra.group_partial_ms) time code already inside
// another replayed call and are not busy time.
type replayer struct {
	bands   int
	workers int // > 0 on the cluster workload: routed pieces cross the wire
	pool    *exec.Pool
	ms      map[string]float64
	busyMS  float64

	selectIn, selectOut int
	parsedBytes         int64
	scanBands           int
	wireBytes           int

	// spillCells > 0 replays the engine's spill policy on routed groupby
	// pieces: admitted while the resident budget lasts, written through a
	// storage.Store and released to disk past it.
	spillCells   int
	spillDir     string // where the store's files land (TMPDIR)
	spilledBytes int64
}

func newReplayer(bands, workers int, pool *exec.Pool) *replayer {
	return &replayer{bands: bands, workers: workers, pool: pool, ms: map[string]float64{}}
}

func (r *replayer) busy(metric string, fn func()) {
	t0 := time.Now()
	fn()
	d := float64(time.Since(t0)) / 1e6
	r.ms[metric] += d
	r.busyMS += d
}

func (r *replayer) probe(metric string, fn func()) {
	t0 := time.Now()
	fn()
	r.ms[metric] += float64(time.Since(t0)) / 1e6
}

// statement replays one optimized plan and returns the rows it produced.
func (r *replayer) statement(plan algebra.Node) (int, error) {
	out, err := r.eval(plan, usedColumns(plan))
	rows := 0
	for _, b := range out {
		rows += b.NRows()
	}
	return rows, err
}

// usedColumns lists the columns a scan's consumers read, which is what the
// engine's lazy induction parses; nil means every column.
func usedColumns(plan algebra.Node) []string {
	seen := map[string]bool{}
	var cols []string
	add := func(c string) {
		if c != "" && !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	all := false
	algebra.Walk(plan, func(n algebra.Node) {
		switch n := n.(type) {
		case *algebra.Selection:
			if n.Where == nil {
				all = true
				return
			}
			for _, t := range n.Where.Terms {
				add(t.Col)
			}
		case *algebra.GroupBy:
			for _, k := range n.Spec.Keys {
				add(k)
			}
			for _, a := range n.Spec.Aggs {
				add(a.Col)
			}
		case *algebra.Source, *algebra.Scan, *algebra.Projection:
		default:
			all = true
		}
	})
	if all {
		return nil
	}
	return cols
}

func (r *replayer) eval(n algebra.Node, used []string) ([]*core.DataFrame, error) {
	switch n := n.(type) {
	case *algebra.Source:
		var pf *partition.Frame
		r.busy("partition.split_ms", func() { pf = partition.New(n.DF, partition.Rows, r.bands) })
		bands := make([]*core.DataFrame, pf.RowBands())
		for i := range bands {
			b, err := pf.RowBand(i)
			if err != nil {
				return nil, err
			}
			bands[i] = b
		}
		return bands, nil

	case *algebra.Scan:
		return r.scan(n, used)

	case *algebra.Selection:
		in, err := r.eval(n.Input, used)
		if err != nil || n.Where == nil {
			return in, err
		}
		return mapBands(in, func(b *core.DataFrame) (out *core.DataFrame, err error) {
			for _, t := range n.Where.Terms {
				if j := b.ColIndex(t.Col); j >= 0 {
					col := b.TypedCol(j)
					r.probe("vector.filter_ms", func() { vector.Filter(col, t.Op, t.Operand, nil) })
				}
			}
			r.busy("algebra.select_ms", func() { out, err = algebra.SelectWhere(b, n.Where) })
			if err == nil {
				r.selectIn += b.NRows()
				r.selectOut += out.NRows()
			}
			return out, err
		})

	case *algebra.Projection:
		in, err := r.eval(n.Input, used)
		if err != nil {
			return nil, err
		}
		return mapBands(in, func(b *core.DataFrame) (*core.DataFrame, error) { return algebra.Project(b, n.Cols) })

	case *algebra.Map:
		in, err := r.eval(n.Input, used)
		if err != nil {
			return nil, err
		}
		return mapBands(in, func(b *core.DataFrame) (out *core.DataFrame, err error) {
			r.busy("algebra.map_ms", func() { out, err = algebra.MapFrame(b, n.Fn) })
			return out, err
		})

	case *algebra.GroupBy:
		in, err := r.eval(n.Input, used)
		if err != nil {
			return nil, err
		}
		out, err := r.groupBy(in, n.Spec)
		return one(out, err)

	case *algebra.Sort:
		in, err := r.eval(n.Input, used)
		if err != nil {
			return nil, err
		}
		return r.sort(in, n)

	case *algebra.TopK:
		in, err := r.eval(n.Input, used)
		if err != nil {
			return nil, err
		}
		// Per-band top-k, then top-k of the gathered partials.
		parts, err := mapBands(in, func(b *core.DataFrame) (out *core.DataFrame, err error) {
			r.busy("algebra.sort_ms", func() { out, err = algebra.TopKFrame(b, n.Order, n.N) })
			return out, err
		})
		if err != nil {
			return nil, err
		}
		all, err := algebra.VStackFrames(parts...)
		if err != nil {
			return nil, err
		}
		var out *core.DataFrame
		r.busy("algebra.sort_ms", func() { out, err = algebra.TopKFrame(all, n.Order, n.N) })
		return one(out, err)

	case *algebra.Limit:
		in, err := r.eval(n.Input, used)
		if err != nil {
			return nil, err
		}
		all, err := algebra.VStackFrames(in...)
		if err != nil {
			return nil, err
		}
		return []*core.DataFrame{algebra.LimitFrame(all, n.N)}, nil

	case *algebra.DropDuplicates:
		all, err := r.gathered(n.Input, used)
		if err != nil {
			return nil, err
		}
		var out *core.DataFrame
		r.busy("algebra.dropdup_ms", func() { out, err = algebra.DropDuplicatesFrame(all, n.Subset) })
		return one(out, err)

	case *algebra.Transpose:
		all, err := r.gathered(n.Input, used)
		if err != nil {
			return nil, err
		}
		var out *core.DataFrame
		r.busy("algebra.transpose_ms", func() { out, err = algebra.TransposeFrame(all, n.Schema) })
		return one(out, err)

	case *algebra.Join:
		return r.join(n, used)
	}
	return nil, fmt.Errorf("replay: no kernel script for %s", n.Describe())
}

func one(df *core.DataFrame, err error) ([]*core.DataFrame, error) {
	if err != nil {
		return nil, err
	}
	return []*core.DataFrame{df}, nil
}

func mapBands(in []*core.DataFrame, fn func(*core.DataFrame) (*core.DataFrame, error)) ([]*core.DataFrame, error) {
	out := make([]*core.DataFrame, len(in))
	for i, b := range in {
		o, err := fn(b)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

func (r *replayer) gathered(n algebra.Node, used []string) (*core.DataFrame, error) {
	in, err := r.eval(n, used)
	if err != nil {
		return nil, err
	}
	return algebra.VStackFrames(in...)
}

// scan parses the file band by band (core.parse_ms) and induces the columns
// the statement reads (schema.induce_ms) into each band's schema cache, so
// the downstream kernels find them parsed — what the engine's lazy
// induction does inside its first kernel.
func (r *replayer) scan(n *algebra.Scan, used []string) ([]*core.DataFrame, error) {
	var cur *core.CSVCursor
	var err error
	r.busy("core.parse_ms", func() { cur, err = n.Cursor() })
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	bandRows := n.BandRows
	var bands []*core.DataFrame
	for {
		var b *core.DataFrame
		r.busy("core.parse_ms", func() { b, err = cur.NextBand(bandRows) })
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		b = b.WithCache(schema.NewCache())
		read := b
		if used != nil {
			if read, err = algebra.Project(b, used); err != nil {
				return nil, err
			}
		}
		r.busy("schema.induce_ms", func() { algebra.InduceFrame(read) })
		bands = append(bands, b)
	}
	r.parsedBytes += cur.BytesRead()
	r.scanBands += len(bands)
	return bands, nil
}

// groupBy replays the band-routed key shuffle: summarize each band, fold the
// plan, route rows by key hash, merge each bucket, restore global order.
func (r *replayer) groupBy(in []*core.DataFrame, spec expr.GroupBySpec) (*core.DataFrame, error) {
	spec.Sorted = false
	nb := r.bands
	if r.workers > 0 {
		nb = r.workers
	}
	stats := make([]*modin.GroupBandStat, len(in))
	pieces := make([][]*core.DataFrame, nb) // [bucket][band]
	var store *storage.Store
	keys := make([][]string, nb) // [bucket][band]: the store key of a spilled piece, "" if resident
	resident := 0
	if r.spillCells > 0 {
		var err error
		if store, err = storage.New(1); err != nil {
			return nil, err
		}
		defer store.Close()
	}
	for bi, b := range in {
		keyCols := make([]vector.Vector, len(spec.Keys))
		for k, name := range spec.Keys {
			if j := b.ColIndex(name); j >= 0 {
				keyCols[k] = b.TypedCol(j)
			}
		}
		if len(keyCols) > 0 {
			dst := make([]uint64, b.NRows())
			r.probe("vector.hash_ms", func() { vector.HashRows(keyCols, 0, dst) })
		}
		r.probe("algebra.group_partial_ms", func() { algebra.GroupByFrame(b, spec) })

		var sum *algebra.GroupKeySummary
		var err error
		r.busy("algebra.group_summarize_ms", func() { sum, err = algebra.SummarizeGroupKeys(b, spec.Keys) })
		if err != nil {
			return nil, err
		}
		stats[bi] = modin.GroupStatOf(sum)
		var views []*core.DataFrame
		r.busy("partition.split_rows_ms", func() {
			assign := make([]int, len(sum.Ordinals))
			for i, d := range sum.Ordinals {
				assign[i] = int(sum.Hashes[d] % uint64(nb))
			}
			views, err = partition.SplitRows(b, assign, nb)
		})
		if err != nil {
			return nil, err
		}
		for bucket, v := range views {
			if r.workers > 0 && bi%r.workers != bucket {
				// Bands run round-robin on the workers; a piece routed to
				// another worker's bucket crosses the wire.
				if v, err = r.wire(v); err != nil {
					return nil, err
				}
			}
			key := ""
			if cells := v.NRows()*v.NCols() + 1; store != nil && resident+cells > r.spillCells {
				key = fmt.Sprintf("piece-%d-%d", bi, bucket)
				r.busy("storage.put_ms", func() {
					if err = store.Put(key, v.Compact()); err == nil {
						err = store.Release(key)
					}
				})
				if err != nil {
					return nil, err
				}
				v = nil
			} else {
				resident += cells
			}
			pieces[bucket] = append(pieces[bucket], v)
			keys[bucket] = append(keys[bucket], key)
		}
	}
	if store != nil {
		r.spilledBytes += dirBytes(r.spillDir, ".gob")
	}
	for bucket, ks := range keys {
		for i, key := range ks {
			if key == "" {
				continue
			}
			var err error
			r.busy("storage.get_ms", func() { pieces[bucket][i], err = store.Get(key) })
			if err != nil {
				return nil, err
			}
			store.Delete(key)
		}
	}
	var routing *modin.GroupRouting
	r.busy("modin.group_plan_ms", func() { routing = modin.PlanGroupRouting(stats, nb, true) })
	merged := make([]*core.DataFrame, nb)
	for bucket := range merged {
		var err error
		r.busy("modin.group_merge_ms", func() {
			merged[bucket], err = modin.MergeGroupBucket(r.pool, pieces[bucket], spec, routing, bucket)
		})
		if err != nil {
			return nil, err
		}
		if r.workers > 0 {
			// Merged buckets return to the coordinator.
			if merged[bucket], err = r.wire(merged[bucket].Compact()); err != nil {
				return nil, err
			}
		}
	}
	if nb == 1 {
		return merged[0], nil
	}
	for b, m := range merged {
		merged[b] = m.DropColumn(m.NCols() - 1) // the rank column, restored from routing.Ranks
	}
	var out *core.DataFrame
	var err error
	r.busy("modin.group_restore_ms", func() { out, err = modin.RestoreGroupOrder(merged, routing.Ranks, spec.AsLabels) })
	return out, err
}

// wire round-trips one frame through the cluster's columnar wire format.
func (r *replayer) wire(df *core.DataFrame) (*core.DataFrame, error) {
	var buf []byte
	var err error
	r.busy("cluster.encode_ms", func() { buf, err = cluster.EncodeFrame(nil, df) })
	if err != nil {
		return nil, err
	}
	r.wireBytes += len(buf)
	var out *core.DataFrame
	r.busy("cluster.decode_ms", func() { out, _, err = cluster.DecodeFrame(buf) })
	return out, err
}

// sort replays the range shuffle: sample, pick bounds, sort and slice each
// band, k-way merge each bucket.
func (r *replayer) sort(in []*core.DataFrame, node *algebra.Sort) ([]*core.DataFrame, error) {
	nb := r.bands
	var samples [][]types.Value
	var bounds [][]types.Value
	var err error
	r.busy("modin.sort_bounds_ms", func() {
		for _, b := range in {
			var s [][]types.Value
			if s, err = modin.SampleSortKeys(b, node); err != nil {
				return
			}
			samples = append(samples, s...)
		}
		bounds = modin.PlanSortBounds(samples, nb, node)
	})
	if err != nil {
		return nil, err
	}
	runs := make([][]*core.DataFrame, nb)
	for _, b := range in {
		var parts []*core.DataFrame
		r.busy("algebra.sort_ms", func() { parts, err = modin.PartitionSortedBand(b, node, bounds, nb) })
		if err != nil {
			return nil, err
		}
		for bucket, p := range parts {
			runs[bucket] = append(runs[bucket], p)
		}
	}
	out := make([]*core.DataFrame, nb)
	for bucket := range out {
		r.busy("modin.sort_merge_ms", func() { out[bucket], err = modin.MergeSortBucket(runs[bucket], node) })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// join replays the key-shuffled hash join: both sides route by key hash,
// each bucket joins its slices. (The engine's restore of left order has no
// public kernel; it shows in physical.tasks_wait_ms only.)
func (r *replayer) join(n *algebra.Join, used []string) ([]*core.DataFrame, error) {
	left, err := r.gathered(n.Left, used)
	if err != nil {
		return nil, err
	}
	right, err := r.gathered(n.Right, used)
	if err != nil {
		return nil, err
	}
	r.probe("stats.collect_ms", func() { _, err = stats.Collect(right, n.On, stats.DefaultPrecision) })
	if err != nil {
		return nil, err
	}
	nb := r.bands
	split := func(df *core.DataFrame) (parts []*core.DataFrame, err error) {
		r.busy("partition.split_rows_ms", func() {
			var hashes []uint64
			if hashes, err = algebra.RowKeyHashes(df, n.On); err != nil {
				return
			}
			assign := make([]int, len(hashes))
			for i, h := range hashes {
				assign[i] = int(h % uint64(nb))
			}
			parts, err = partition.SplitRows(df, assign, nb)
		})
		return parts, err
	}
	lp, err := split(left)
	if err != nil {
		return nil, err
	}
	rp, err := split(right)
	if err != nil {
		return nil, err
	}
	out := make([]*core.DataFrame, nb)
	for b := range out {
		r.busy("algebra.join_ms", func() { out[b], err = algebra.JoinFrames(lp[b], rp[b], n.Kind, n.On, n.OnLabels) })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dirBytes sums the sizes of the files under dir with the given suffix.
func dirBytes(dir, suffix string) int64 {
	var total int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, suffix) {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
