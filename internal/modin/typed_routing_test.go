package modin

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/types"
	"repro/internal/vector"
)

// routingCSV is 96 rows whose columns are the ones where a band's induction
// and a routed piece's used to part ways:
//
//	mixed_v  integer-valued in the first 40 rows, fractional after
//	num_k    spelled 1, 2, 3 in the first 48 rows and 1.0, 2.0, 3.0 after
//	str_k    five strings: Category over a 64-row band, never over a piece
//	         of fewer than 16 rows
//	null_v   an int in the first 64 rows, null in every row after
//	ts_k     four timestamps that differ only below the second
//	ts_v     timestamps a nanosecond apart, with a zone offset
//	f        the row number, for the filter
func routingCSV() string {
	var b strings.Builder
	b.WriteString("mixed_v,num_k,str_k,null_v,ts_k,ts_v,f\n")
	for i := 0; i < 96; i++ {
		mixed := fmt.Sprint(i % 9)
		if i >= 40 {
			mixed = fmt.Sprintf("%d.25", i%9)
		}
		num := fmt.Sprint(1 + i%3)
		if i >= 48 {
			num += ".0"
		}
		null := fmt.Sprint(i % 11)
		if i >= 64 {
			null = ""
		}
		fmt.Fprintf(&b, "%s,%s,%s,%s,2020-01-02T03:04:05.%09dZ,2021-06-07T08:09:10.%09d+05:30,%d\n",
			mixed, num, []string{"red", "green", "blue", "cyan", "plum"}[i%5], null, i%4, 1000-i, i)
	}
	return b.String()
}

func textScan(text string, bandRows int) *algebra.Scan {
	data := []byte(text)
	header, _, _ := strings.Cut(text, "\n")
	return &algebra.Scan{
		Name:     "csv",
		Columns:  strings.Split(header, ","),
		Data:     data,
		Options:  core.DefaultCSVOptions(),
		SizeHint: int64(len(data)),
		BandRows: bandRows,
	}
}

func aggsOf(col string) []expr.AggSpec {
	return []expr.AggSpec{
		{Col: col, Agg: expr.AggSum}, {Col: col, Agg: expr.AggMin}, {Col: col, Agg: expr.AggMax},
		{Col: col, Agg: expr.AggCountDistinct}, {Col: col, Agg: expr.AggFirst},
	}
}

// typedAggsOf is every aggregate kind GroupPartial keeps flat state for.
func typedAggsOf(col string) []expr.AggSpec {
	var aggs []expr.AggSpec
	for _, k := range []expr.AggKind{expr.AggCount, expr.AggSize, expr.AggSum, expr.AggMean, expr.AggMin, expr.AggMax} {
		aggs = append(aggs, expr.AggSpec{Col: col, Agg: k})
	}
	return aggs
}

var routingGroupBys = []expr.GroupBySpec{
	// str_k is Category in a band of many rows, each band with its own
	// table, and Σ* in a small one.
	{Keys: []string{"str_k"}, Aggs: append(typedAggsOf("mixed_v"), typedAggsOf("null_v")...)},
	{Keys: []string{"str_k"}, Aggs: aggsOf("mixed_v")},
	{Keys: []string{"num_k"}, Aggs: aggsOf("null_v")},
	{Keys: []string{"ts_k"}, Aggs: append(aggsOf("ts_v")[1:], expr.AggSpec{Col: "mixed_v", Agg: expr.AggSum})},
	{Keys: []string{"num_k", "str_k"}, Aggs: aggsOf("mixed_v"), AsLabels: true},
}

// routingSorts are full sorts; sameDomains marks the ones whose key columns
// induce to one domain in every band, so their runs stack typed.
var routingSorts = []struct {
	order       expr.SortOrder
	sameDomains bool
}{
	{expr.SortOrder{{Col: "ts_k", Desc: true}, {Col: "f"}}, true},
	{expr.SortOrder{{Col: "ts_v"}}, true},
	{expr.SortOrder{{Col: "mixed_v"}, {Col: "num_k", Desc: true}}, false},
	{expr.SortOrder{{Col: "str_k"}, {Col: "null_v"}}, false},
}

var routingWhere = expr.WhereCompare("f", vector.CmpGe, types.IntValue(7))

// Streamed scan → [Where] → GroupBy and scan → SortValues agree with the
// eager engine cell for cell, at band sizes that put one row, a few rows and
// most of the file in a band, on 1, 2 and 7 shuffle buckets, resident and
// with every routed piece spilled.
func TestStreamedShufflesMatchEagerOnBandSensitiveColumns(t *testing.T) {
	text := routingCSV()
	for _, bandRows := range []int{1, 7, 64} {
		for _, budget := range []int{0, 1} {
			for _, bands := range []int{1, 2, 7} {
				name := fmt.Sprintf("band %d budget %d bands %d", bandRows, budget, bands)
				newEngine := func() *Engine {
					return New(WithBands(bands), WithShuffleSpillBudget(budget))
				}
				for _, spec := range routingGroupBys {
					for _, filtered := range []bool{false, true} {
						var in algebra.Node = textScan(text, bandRows)
						if filtered {
							in = &algebra.Selection{Input: in, Where: routingWhere}
						}
						t.Run(fmt.Sprintf("%s groupby %v filtered=%v", name, spec.Keys, filtered), func(t *testing.T) {
							e := newEngine()
							defer e.ReleaseSpill()
							assertEngineAgreesWithEager(t, e, &algebra.GroupBy{Input: in, Spec: spec})
							if spilled := e.Stats().SpilledPieces.Load(); (budget > 0) != (spilled > 0) {
								t.Errorf("%d pieces spilled under budget %d", spilled, budget)
							}
						})
					}
				}
				for _, s := range routingSorts {
					t.Run(fmt.Sprintf("%s sort %v", name, s.order), func(t *testing.T) {
						e := newEngine()
						defer e.ReleaseSpill()
						assertEngineAgreesWithEager(t, e, &algebra.Sort{Input: textScan(text, bandRows), Order: s.order})
					})
				}
			}
		}
	}
}

// streamedBands runs the scan (and the filter fused into it) through the
// engine's own stream stage and returns the bands as they leave it — what a
// shuffle downstream is handed, induction cache and all.
func streamedBands(t *testing.T, text string, bandRows int, w *expr.Where) []*core.DataFrame {
	t.Helper()
	var plan algebra.Node = textScan(text, bandRows)
	if w != nil {
		plan = &algebra.Selection{Input: plan, Where: w}
	}
	res, _, err := New(WithBands(4)).Schedule(plan)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	bands := make([]*core.DataFrame, pf.RowBands())
	for r := range bands {
		if bands[r], err = pf.RowBand(r); err != nil {
			t.Fatal(err)
		}
	}
	return bands
}

// misses sums the induction-cache misses of the given frames' caches, each
// cache once.
func misses(frames []*core.DataFrame) int64 {
	seen := map[*schema.Cache]bool{}
	var total int64
	for _, f := range frames {
		if c := f.Cache(); c != nil && !seen[c] {
			seen[c] = true
			_, m := c.Stats()
			total += m
		}
	}
	return total
}

// runPhases drives one partitioned shuffle by hand — summarize every band
// and plan when the shuffle has those phases, partition every band, then
// merge every bucket — passing every routed piece through the engine's
// spill ledger, so pieces are admitted or spilled exactly as in a run. It
// returns the merged buckets and how many inductions (cache misses, on the
// bands' caches and on the caches of pieces read back from disk) ran after
// the partition phase. reads names the columns the merge reads: a piece
// must hold each one typed, or declared Σ*.
func runPhases(t *testing.T, e *Engine, sh *physical.Shuffle, bands []*core.DataFrame, reads []string) ([]*core.DataFrame, int64) {
	t.Helper()
	defer e.ReleaseSpill()
	sums := make([]any, len(bands))
	for r, band := range bands {
		if sh.Summarize == nil {
			break
		}
		s, err := sh.Summarize(r, band)
		if err != nil {
			t.Fatal(err)
		}
		sums[r] = s
	}
	var plan any
	var err error
	if sh.Plan != nil { // the sort's partition waits for the bounds
		if plan, err = sh.Plan(sums, nil); err != nil {
			t.Fatal(err)
		}
	}
	routed := make([][]func() (*core.DataFrame, error), sh.Buckets) // [bucket][band]
	for r, band := range bands {
		pieces, err := sh.Partition(r, band, plan)
		if err != nil {
			t.Fatal(err)
		}
		for b, p := range pieces {
			take := func() (*core.DataFrame, error) { return p, nil }
			if e.spill != nil {
				if take, err = e.spill.Admit(p); err != nil {
					t.Fatal(err)
				}
			}
			routed[b] = append(routed[b], take)
		}
	}

	// Take the pieces back the way a merge would, so the caches of decoded
	// pieces are in hand, then run the shuffle's own merge on them.
	watched := append([]*core.DataFrame(nil), bands...)
	resolved := make([][]*core.DataFrame, sh.Buckets)
	raw := map[string]bool{}
	for b := range routed {
		for _, take := range routed[b] {
			piece, err := take()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range reads {
				j := piece.ColIndex(name)
				if piece.Col(j).Domain() == types.Object && piece.DeclaredDomain(j) != types.Object && !raw[name] {
					raw[name] = true
					t.Errorf("column %q reaches the merge raw (declared %v)", name, piece.DeclaredDomain(j))
				}
			}
			watched = append(watched, piece)
			resolved[b] = append(resolved[b], piece)
		}
	}
	before := misses(watched)
	out := make([]*core.DataFrame, sh.Buckets)
	for b := range out {
		if out[b], err = sh.Merge(b, physical.PiecesOf(resolved[b]...), plan); err != nil {
			t.Fatal(err)
		}
	}
	return out, misses(watched) - before
}

// After the partition phase nothing is induced: every column a merge reads
// was resolved on its band, in the band's task, and routed typed — through
// memory and through the spill store alike.
func TestNoInductionAfterThePartitionPhase(t *testing.T) {
	text := routingCSV()
	for _, bandRows := range []int{1, 7, 64} {
		for _, budget := range []int{0, 1} {
			for _, w := range []*expr.Where{nil, routingWhere} {
				name := fmt.Sprintf("band %d budget %d filtered=%v", bandRows, budget, w != nil)
				for _, spec := range routingGroupBys {
					e := New(WithBands(4), WithShuffleSpillBudget(budget))
					reads := append([]string(nil), spec.Keys...)
					for _, a := range spec.Aggs {
						reads = append(reads, a.Col)
					}
					_, induced := runPhases(t, e, e.groupByShuffle(spec), streamedBands(t, text, bandRows, w), reads)
					if induced != 0 {
						t.Errorf("%s groupby %v: %d inductions after the partition phase", name, spec.Keys, induced)
					}
				}
				for _, s := range routingSorts {
					if !s.sameDomains {
						continue
					}
					e := New(WithBands(4), WithShuffleSpillBudget(budget))
					node := &algebra.Sort{Order: s.order}
					var reads []string
					for _, o := range s.order {
						reads = append(reads, o.Col)
					}
					_, induced := runPhases(t, e, e.sortShuffle(node), streamedBands(t, text, bandRows, w), reads)
					if induced != 0 {
						t.Errorf("%s sort %v: %d inductions after the partition phase", name, s.order, induced)
					}
				}
			}
		}
	}
}

// An already-typed band is its own resolved form: routing it allocates no
// second frame and swaps no column.
func TestTypedFrameRoutesUnchanged(t *testing.T) {
	df := algebra.InduceFrame(testFrame(64)).WithCache(schema.NewCache())
	if got := df.Resolved(); got != df {
		t.Error("Resolved of a typed frame should be the frame itself")
	}
	if n := testing.AllocsPerRun(20, func() { df.Resolved() }); n != 0 {
		t.Errorf("Resolved of a typed frame allocates %v times", n)
	}
}
