package modin_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/session"
	"repro/internal/vector"
)

// pathFrame is a frame of every column kind a gathered result stacks: an
// Int key, a Float with nulls, a Dict and an Object column.
func pathFrame(rows int) *core.DataFrame {
	r := rand.New(rand.NewSource(11))
	key, amount, nulls := make([]int64, rows), make([]float64, rows), make([]bool, rows)
	region, flag := make([]int32, rows), make([]string, rows)
	for i := range key {
		key[i], amount[i], nulls[i] = int64(r.Intn(rows/3)), float64(r.Intn(1000))/8, r.Intn(9) == 0
		region[i], flag[i] = int32(r.Intn(5)), fmt.Sprintf("f%d", r.Intn(rows))
	}
	return core.MustNew([]string{"key", "amount", "region", "flag"}, []vector.Vector{
		vector.NewInt(key, nil),
		vector.NewFloat(amount, nulls),
		vector.NewDict(region, []string{"north", "south", "east", "west", "centre"}, nil),
		vector.NewObjectFromStrings(flag),
	})
}

// pathPlans are statements whose collected results stack their bands: a
// groupby, a sort, a filter chain, a join and a dropdup.
func pathPlans(in algebra.Node) map[string]algebra.Node {
	return map[string]algebra.Node{
		"groupby": &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"key"}, Aggs: []expr.AggSpec{{Col: "amount", Agg: expr.AggSum}}}},
		"sort":    &algebra.Sort{Input: in, Order: expr.SortOrder{{Col: "amount", Desc: true}, {Col: "key"}}},
		"filter":  &algebra.Projection{Input: &algebra.Selection{Input: in, Where: expr.WhereNotNull("amount")}, Cols: []string{"flag", "amount"}},
		"join":    &algebra.Join{Left: in, Right: in, Kind: expr.JoinInner, On: []string{"flag"}},
		"dropdup": &algebra.DropDuplicates{Input: in, Subset: []string{"region"}},
	}
}

// csvScan streams df's CSV text in bands of bandRows rows; each band
// induces its own types, so a category column gets a table per band.
func csvScan(t *testing.T, df *core.DataFrame, bandRows int) *algebra.Scan {
	t.Helper()
	var buf bytes.Buffer
	if err := df.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	s := &algebra.Scan{Name: "csv", Data: buf.Bytes(), Options: core.DefaultCSVOptions(), SizeHint: int64(buf.Len()), BandRows: bandRows}
	cols, err := s.Probe()
	if err != nil {
		t.Fatal(err)
	}
	s.Columns = cols
	return s
}

func eagerResult(t *testing.T, plan algebra.Node) *core.DataFrame {
	t.Helper()
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// stacked reports whether some column or the row labels of df kept more
// than one band's storage.
func stacked(df *core.DataFrame) bool {
	for _, c := range append([]vector.Vector{df.RowLabels()}, df.Columns()...) {
		if len(vector.Pieces(c)) > 1 {
			return true
		}
	}
	return false
}

// TestCollectedResultsMatchEagerOnEveryPath: a collected result keeps its
// bands' storage, and reads bit for bit as eager's result on every path
// that gathers one — at 1, 2 and 7 bands, on a one-worker pool, with every
// routed piece spilled, over a streamed scan whose bands hold their own
// category tables, through the cluster coordinator, and after the session
// store spills the result and reads it back.
func TestCollectedResultsMatchEagerOnEveryPath(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	df := pathFrame(600)
	src := &algebra.Source{DF: df, Name: "f"}
	one := exec.NewPool(1)
	defer one.Close()
	engines := []struct {
		name string
		e    *modin.Engine
	}{
		{"bands=1", modin.New(modin.WithBands(1))},
		{"bands=2", modin.New(modin.WithBands(2))},
		{"bands=7", modin.New(modin.WithBands(7))},
		{"1worker", modin.New(modin.WithPool(one), modin.WithBands(2))},
		{"spill", modin.New(modin.WithBands(3), modin.WithShuffleSpillBudget(1))},
	}
	for name, plan := range pathPlans(src) {
		for _, c := range engines {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				got, err := c.e.Execute(plan)
				if err != nil {
					t.Fatal(err)
				}
				if d := modin.BitDiff(eagerResult(t, plan), got, false); d != "" {
					t.Fatal(d)
				}
				// The groupby restores its few groups into one band, and
				// the dropdup gathers its input whole.
				if c.name == "bands=7" && name != "groupby" && name != "dropdup" && !stacked(got) {
					t.Error("a 7-band result was copied into one array")
				}
			})
		}
	}

	scan := csvScan(t, df, 90)
	for name, plan := range pathPlans(scan) {
		t.Run(name+"/streamed", func(t *testing.T) {
			got, err := modin.New(modin.WithBands(7)).Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			if d := modin.BitDiff(eagerResult(t, plan), got, true); d != "" {
				t.Fatal(d)
			}
		})
	}
	t.Run("streamed category tables", func(t *testing.T) {
		// Each band types the sort key region with its own category table,
		// and each bucket's merge builds its own from them.
		plan := &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "region"}, {Col: "key"}}}
		got, err := modin.New(modin.WithBands(7)).Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		region := got.Col(2)
		tables := map[*string]bool{}
		for _, p := range vector.Pieces(region) {
			if _, dict, _, _, ok := vector.DictData(p); ok {
				tables[&dict[0]] = true
			}
		}
		if len(tables) < 2 {
			t.Fatalf("region stacked %d category tables from %d bands, want one per band", len(tables), len(vector.Pieces(region)))
		}
		if d := modin.BitDiff(eagerResult(t, plan), got, true); d != "" {
			t.Fatal(d)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		s, workers, err := cluster.StartInProcess(2, cluster.WithHeartbeat(0))
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			s.Close()
			for _, w := range workers {
				w.Close()
			}
		}()
		for name, plan := range pathPlans(scan) {
			got, err := s.Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			if d := modin.BitDiff(eagerResult(t, plan), got, true); d != "" {
				t.Fatalf("%s: %s", name, d)
			}
		}
		if st := s.ClusterStats(); st.Distributed < 3 {
			t.Errorf("%d of the statements distributed, want the groupby, sort and filter", st.Distributed)
		}
	})

	t.Run("session store", func(t *testing.T) {
		sess := session.New(modin.New(modin.WithBands(7)), session.Opportunistic, nil)
		defer sess.Close()
		if err := sess.EnableSpillingBudget(1); err != nil {
			t.Fatal(err)
		}
		var handles []*session.Handle
		for name, plan := range pathPlans(src) {
			h := sess.Statement(name, plan)
			if _, err := h.Collect(); err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		if sess.SpillToFit(0) == 0 {
			t.Fatal("nothing spilled")
		}
		for _, h := range handles {
			got, err := h.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if d := modin.BitDiff(eagerResult(t, h.Plan()), got, false); d != "" {
				t.Fatalf("%s after a spill: %s", h.Name(), d)
			}
		}
	})
}
