package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/optimizer"
	"repro/internal/types"
	"repro/internal/vector"
)

// csvScan builds a buffer-backed scan node over text, probing the header
// the way df.ScanCSVString does.
func csvScan(t *testing.T, text string, bandRows int) *algebra.Scan {
	t.Helper()
	data := []byte(text)
	s := &algebra.Scan{
		Name: "csv",
		Data: data,
		Open: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		},
		Options:  core.DefaultCSVOptions(),
		SizeHint: int64(len(data)),
		BandRows: bandRows,
	}
	cur, err := s.Cursor()
	if err != nil {
		t.Fatalf("cursor: %v", err)
	}
	s.Columns = cur.Columns()
	cur.Close()
	return s
}

// genCSV builds a deterministic mixed-type CSV with nRows data rows.
func genCSV(nRows int) string {
	var b strings.Builder
	b.WriteString("k,v,name\n")
	for i := 0; i < nRows; i++ {
		fmt.Fprintf(&b, "%d,%d,item-%d\n", i%7, i*3%101, i%13)
	}
	return b.String()
}

// startCluster returns a scheduler over n in-process workers, cleaned up
// with the test.
func startCluster(t *testing.T, n int) (*Scheduler, []*Worker) {
	t.Helper()
	s, workers, err := StartInProcess(n, WithHeartbeat(0))
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(func() {
		s.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return s, workers
}

// checkSame runs the plan on both backends and requires cell-identical
// frames and a distributed (not fallen-back) cluster run.
func checkSame(t *testing.T, s *Scheduler, plan algebra.Node) {
	t.Helper()
	before := s.ClusterStats().Distributed
	got, err := s.Execute(plan)
	if err != nil {
		t.Fatalf("cluster execute: %v", err)
	}
	want, err := modin.New().Execute(plan)
	if err != nil {
		t.Fatalf("local execute: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("distributed result differs from local:\n got %dx%d\nwant %dx%d",
			got.NRows(), got.NCols(), want.NRows(), want.NCols())
	}
	if s.ClusterStats().Distributed != before+1 {
		t.Fatalf("plan did not distribute (stats %+v)", s.ClusterStats())
	}
}

func whereGE(col string, v int64) *algebra.Selection {
	return &algebra.Selection{Where: expr.WhereCompare(col, vector.CmpGe, types.IntValue(v))}
}

func TestDistributedChainMatchesLocal(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(900), 128)
	sel := whereGE("v", 20)
	sel.Input = scan
	plan := algebra.Node(&algebra.Projection{Input: sel, Cols: []string{"k", "v"}})
	checkSame(t, s, plan)
}

func TestDistributedGroupByMatchesLocal(t *testing.T) {
	s, _ := startCluster(t, 3)
	scan := csvScan(t, genCSV(1100), 97)
	sel := whereGE("v", 5)
	sel.Input = scan
	gb := &algebra.GroupBy{Input: sel, Spec: expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Col: "v", Agg: expr.AggMean, As: "avg"}},
	}}
	plan := algebra.Node(&algebra.Selection{Input: gb, Where: expr.WhereCompare("v_sum", vector.CmpGt, types.IntValue(0))})
	checkSame(t, s, plan)
}

func TestDistributedGroupByAsLabels(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(400), 64)
	plan := &algebra.GroupBy{Input: scan, Spec: expr.GroupBySpec{
		Keys:     []string{"name"},
		Aggs:     []expr.AggSpec{{Col: "v", Agg: expr.AggMax}},
		AsLabels: true,
	}}
	checkSame(t, s, plan)
}

func TestDistributedSortMatchesLocal(t *testing.T) {
	s, _ := startCluster(t, 3)
	scan := csvScan(t, genCSV(800), 110)
	sort := &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "v", Desc: true}, {Col: "name"}}}
	plan := algebra.Node(&algebra.Projection{Input: sort, Cols: []string{"v", "name"}})
	checkSame(t, s, plan)
}

func TestDistributedSourceFrameGroupBy(t *testing.T) {
	s, _ := startCluster(t, 2)
	n := 500
	keys := make([]string, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("g%d", i%11)
		vals[i] = int64(i % 29)
	}
	df := core.MustNew([]string{"k", "v"}, []vector.Vector{
		vector.NewObjectFromStrings(keys), vector.NewInt(vals, nil),
	})
	plan := &algebra.GroupBy{Input: &algebra.Source{DF: df}, Spec: expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Col: "v", Agg: expr.AggCount}},
	}}
	checkSame(t, s, plan)
}

func TestDistributedRenameChain(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(300), 50)
	ren := &algebra.Rename{Input: scan, Mapping: map[string]string{"v": "value", "k": "key"}}
	sel := whereGE("value", 10)
	sel.Input = ren
	checkSame(t, s, sel)
}

// Plans outside the shippable subset — an opaque predicate, a Where operand
// or an aggregate whose values have no binary form — must decline at
// extraction and run on the local engine, transparently, under the reason
// that names the disqualifying operator.
func TestFallbackForOpaquePlans(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(100), 40)
	cases := []struct {
		name   string
		plan   algebra.Node
		reason string
	}{
		{"opaque predicate", &algebra.Selection{
			Input: scan,
			Pred:  func(r expr.Row) bool { return true },
			Desc:  "opaque",
		}, "opaque closure"},
		{"composite operand", &algebra.Selection{
			Input: scan,
			Where: expr.WhereCompare("k", vector.CmpNe, types.CompositeValue(&struct{}{})),
		}, "opaque closure"},
		// The projection drops the composite column so the frames compare.
		{"collect aggregate", &algebra.Projection{Cols: []string{"k"}, Input: &algebra.GroupBy{
			Input: scan,
			Spec:  expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggCollect}}},
		}}, "composite aggregate"},
	}
	for _, tc := range cases {
		before := s.ClusterStats()
		got, err := s.Execute(tc.plan)
		if err != nil {
			t.Fatalf("%s: execute: %v", tc.name, err)
		}
		want, err := modin.New().Execute(tc.plan)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: fallback result differs from local", tc.name)
		}
		after := s.ClusterStats()
		if after.Fallback != before.Fallback+1 || after.Distributed != before.Distributed ||
			after.FallbackReasons[tc.reason] != before.FallbackReasons[tc.reason]+1 {
			t.Errorf("%s: expected one %q fallback, stats %+v → %+v", tc.name, tc.reason, before, after)
		}
	}
}

// A worker result gob cannot encode (a Composite value among its scalars)
// must come back in-band as an application error: the coordinator re-runs
// the query locally and keeps the worker, rather than losing the connection
// or waiting out the RPC timeout. The stand-in worker answers through the
// same respond path a real one does.
func TestWorkerEncodeFailureRerunsLocally(t *testing.T) {
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	go func() {
		for {
			conn, err := ls.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					kind, _, err := readMsg(conn)
					if err != nil {
						return
					}
					var resp any = emptyResp{OK: true}
					if kind == mRunBands {
						bad := [][]types.Value{{types.CompositeValue(&struct{}{})}}
						resp = &RunBandsResp{Results: []BandResult{{Sort: bad}}}
					}
					if respond(conn, resp, nil) != nil {
						return
					}
				}
			}()
		}
	}()
	s, err := Connect([]string{ls.Addr().String()}, WithHeartbeat(0), WithRPCTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan := &algebra.Sort{Input: csvScan(t, genCSV(100), 40), Order: expr.SortOrder{{Col: "v"}}}
	got, err := s.Execute(plan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	want, err := modin.New().Execute(plan)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("re-run result differs from local")
	}
	if st := s.ClusterStats(); st.LocalReruns != 1 || st.DeadWorkers != 0 || st.Distributed != 0 {
		t.Fatalf("expected one local re-run and a live worker, stats %+v", st)
	}
}

// The control messages carry the expr specs and modin stats themselves:
// what a worker decodes must be exactly what the coordinator extracted.
func TestControlMessagesCarrySpecs(t *testing.T) {
	roundTrip := func(in, out any) {
		t.Helper()
		body, err := encodePayload(in)
		if err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
		if err := decodePayload(body, out); err != nil {
			t.Fatalf("decode %T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%T changed on the wire:\n sent %+v\n got  %+v", in, in, out)
		}
	}
	where := expr.WhereCompare("v", vector.CmpGe, types.IntValue(20)).
		And("name", vector.CmpEq, types.CategoryValue("item-3")).
		And("t", vector.CmpLt, types.DatetimeFromNanos(1e18)).
		And("k", vector.CmpNe, types.Null())
	group := PlanSpec{
		Buckets: 3,
		Pre:     []OpSpec{{Where: where}, {Where: &expr.Where{}}, {Rename: map[string]string{"v": "value"}}, {Cols: []string{"k", "value"}}},
		Group: &expr.GroupBySpec{
			Keys:     []string{"k"},
			Aggs:     []expr.AggSpec{{Col: "value", Agg: expr.AggSum}, {Col: "value", Agg: expr.AggMean, As: "avg"}},
			AsLabels: true,
			Sorted:   true,
		},
		Post: []OpSpec{{Where: expr.WhereCompare("avg", vector.CmpGt, types.FloatValue(0.5))}},
	}
	roundTrip(&PrepareReq{QID: "q", Plan: group}, &PrepareReq{})
	sorted := PlanSpec{Sort: &algebra.Sort{Order: expr.SortOrder{{Col: "v", Desc: true}, {Col: "name"}}}}
	roundTrip(&PrepareReq{QID: "q", Plan: sorted}, &PrepareReq{})
	roundTrip(&PrepareReq{QID: "q", Plan: PlanSpec{Sort: &algebra.Sort{ByLabels: true}}}, &PrepareReq{})
	tuples := [][]types.Value{{types.String("a"), types.IntValue(1)}, {types.Null(), types.BoolValue(true)}}
	roundTrip(&RunBandsResp{Results: []BandResult{
		{Band: 1, Rows: 9, Group: &modin.GroupBandStat{Hashes: []uint64{7, 1 << 63}, Exemplars: tuples, Counts: []int64{4, 5}}, Sizes: []int64{10, 0, 3}},
		{Band: 2, Rows: 2, Sort: tuples},
	}}, &RunBandsResp{})
	roundTrip(&PartitionReq{QID: "q", Bands: []int{0, 2}, Buckets: 3, Bounds: tuples}, &PartitionReq{})
}

// A remote application error (unknown sort column reaches execution) must
// re-run locally so the caller sees the local engine's error identity.
func TestRemoteErrorRerunsLocally(t *testing.T) {
	s, _ := startCluster(t, 2)
	scan := csvScan(t, genCSV(100), 40)
	plan := &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "nope"}}}
	_, errCluster := s.Execute(plan)
	_, errLocal := modin.New().Execute(plan)
	if errCluster == nil || errLocal == nil {
		t.Fatalf("expected errors, got cluster=%v local=%v", errCluster, errLocal)
	}
	if errCluster.Error() != errLocal.Error() {
		t.Fatalf("error identity differs:\ncluster: %v\nlocal:   %v", errCluster, errLocal)
	}
	if s.ClusterStats().LocalReruns == 0 {
		t.Fatal("expected a local re-run to be counted")
	}
}

// Killing a worker between the band stage and partition must re-submit the
// lost bands' lineage and still produce the local result.
func TestWorkerLossAfterBands(t *testing.T) {
	s, workers := startCluster(t, 2)
	scan := csvScan(t, genCSV(1000), 90)
	plan := &algebra.GroupBy{Input: scan, Spec: expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}},
	}}
	killed := false
	s.OnPhase = func(phase string) {
		if phase == "bands" && !killed {
			killed = true
			workers[0].Close()
		}
	}
	checkSame(t, s, plan)
	st := s.ClusterStats()
	if st.ResubmittedBands == 0 {
		t.Fatalf("expected resubmitted bands, stats %+v", st)
	}
	if st.DeadWorkers == 0 {
		t.Fatalf("expected a dead worker, stats %+v", st)
	}
}

// Killing a worker after partition (pieces routed, merges not yet run)
// exercises the fetch-failure attribution path.
func TestWorkerLossAfterPartition(t *testing.T) {
	s, workers := startCluster(t, 2)
	scan := csvScan(t, genCSV(1200), 80)
	plan := &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "v"}, {Col: "k", Desc: true}}}
	killed := false
	s.OnPhase = func(phase string) {
		if phase == "partitioned" && !killed {
			killed = true
			workers[1].Close()
		}
	}
	checkSame(t, s, plan)
	if s.ClusterStats().ResubmittedBands == 0 {
		t.Fatalf("expected resubmitted bands, stats %+v", s.ClusterStats())
	}
}

// Losing every worker exhausts the cluster and falls back to a local
// re-run, still returning the right answer.
func TestAllWorkersLostFallsBack(t *testing.T) {
	s, workers := startCluster(t, 2)
	scan := csvScan(t, genCSV(600), 70)
	plan := &algebra.GroupBy{Input: scan, Spec: expr.GroupBySpec{
		Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}},
	}}
	killed := false
	s.OnPhase = func(phase string) {
		if !killed {
			killed = true
			for _, w := range workers {
				w.Close()
			}
		}
	}
	got, err := s.Execute(plan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	want, err := modin.New().Execute(plan)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("fallback result differs from local")
	}
	if s.ClusterStats().LocalReruns == 0 {
		t.Fatalf("expected local re-run, stats %+v", s.ClusterStats())
	}
}

// Merge placement must follow the reported piece bytes: the worker holding
// the most bytes of a bucket hosts its merge.
func TestMergePlacementFollowsBytes(t *testing.T) {
	wa := &workerRef{addr: "a"}
	wb := &workerRef{addr: "b"}
	r := &run{
		workers: []*workerRef{wa, wb},
		bands: []bandState{
			{owner: wa}, {owner: wb}, {owner: wa},
		},
		sizes: [][]int64{
			{100, 5},  // band 0 on a
			{10, 900}, // band 1 on b
			{50, 10},  // band 2 on a
		},
	}
	if got := r.placeMerge(0); got != wa {
		t.Fatalf("bucket 0 placed on %s, want a (150 bytes vs 10)", got.addr)
	}
	if got := r.placeMerge(1); got != wb {
		t.Fatalf("bucket 1 placed on %s, want b (900 bytes vs 15)", got.addr)
	}
}

// splitCSV must cut bands exactly at the record boundaries encoding/csv
// sees — quoted newlines, escaped quotes, blank lines, \r\n — so that
// re-parsing the concatenated ranges reproduces the whole-file parse.
func TestSplitCSVMatchesEncodingCSV(t *testing.T) {
	cases := []string{
		"a,b\n1,2\n3,4\n5,6\n",
		"a,b\n\"x\ny\",2\n\"he said \"\"hi\"\"\",4\n",
		"a,b\r\n1,2\r\n\r\n3,4\r\n",
		"a,b\n1,2\n\n\n3,4\n5,6", // blank lines + unterminated final record
		"a,b\n\"q,uo\",\"\"\n,\n",
	}
	for ci, text := range cases {
		for _, bandRows := range []int{1, 2, 100} {
			ranges, err := splitCSV(strings.NewReader(text), ',', true, bandRows)
			if err != nil {
				t.Fatalf("case %d: split: %v", ci, err)
			}
			whole, err := core.ReadCSVString(text, core.DefaultCSVOptions())
			if err != nil {
				t.Fatalf("case %d: read: %v", ci, err)
			}
			total := 0
			for _, rng := range ranges {
				sub := text[rng.Offset : rng.Offset+rng.Length]
				cur, err := core.NewCSVCursor(strings.NewReader(sub), core.CSVOptions{Comma: ',', Header: false})
				if err != nil {
					t.Fatalf("case %d: cursor: %v", ci, err)
				}
				band, err := cur.NextBand(rng.Rows + 1)
				if err != nil {
					t.Fatalf("case %d: parse range: %v", ci, err)
				}
				if band.NRows() != rng.Rows {
					t.Fatalf("case %d: range parsed %d rows, split planned %d", ci, band.NRows(), rng.Rows)
				}
				if int64(total) != rng.Row {
					t.Fatalf("case %d: range starts at row %d, want %d", ci, rng.Row, total)
				}
				total += rng.Rows
			}
			if total != whole.NRows() {
				t.Fatalf("case %d bandRows=%d: split covers %d rows, file has %d", ci, bandRows, total, whole.NRows())
			}
		}
	}
}

// Close used to clear the stop-channel field while the freshly started
// heartbeat goroutine was still reading it; with the default heartbeat an
// immediate Close must be race-free (run under -race) and repeatable.
func TestCloseRacesHeartbeatStart(t *testing.T) {
	for i := 0; i < 20; i++ {
		s, workers, err := StartInProcess(2)
		if err != nil {
			t.Fatalf("start cluster: %v", err)
		}
		s.Close()
		s.Close()
		for _, w := range workers {
			w.Close()
		}
	}
}

func TestLocalSchedulerDegenerates(t *testing.T) {
	s := Local()
	scan := csvScan(t, genCSV(50), 10)
	got, err := s.Execute(scan)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	want, err := modin.New().Execute(scan)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("Local() scheduler differs from modin")
	}
	if s.ClusterStats().Fallback != 1 || s.ClusterStats().Distributed != 0 {
		t.Fatalf("Local() should always fall back, stats %+v", s.ClusterStats())
	}
}

// countingProxy forwards TCP connections to target and adds every byte it
// forwards, in either direction, to total. A scheduler connected through one
// proxy per worker sees all of a query's traffic counted: control messages,
// and peer fetches too, since workers dial the addresses the coordinator
// knows their peers by.
func countingProxy(t *testing.T, target string, total *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	forward := func(dst, src net.Conn) {
		io.Copy(writerFunc(func(p []byte) (int, error) {
			total.Add(int64(len(p)))
			return dst.Write(p)
		}), src)
		dst.Close()
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return // listener closed with the test
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			go forward(up, down)
			go forward(down, up)
		}
	}()
	return ln.Addr().String()
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestPrunedGroupByStillDistributes guards the two statement shapes the
// benchmark ships (scan → [filter] → groupby over a wide file) against the
// optimizer's column pruning: the optimized plans stay inside the shippable
// family as [project, select, project] and [project] pre-shuffle chains,
// nothing falls back, results match the local engine, and the pruned plan
// moves fewer bytes between coordinator and workers than the same statement
// unoptimized — a byte count through the proxies, not a timing.
func TestPrunedGroupByStillDistributes(t *testing.T) {
	var text strings.Builder
	text.WriteString("k,f1,f2,a,f3,f4,v,f5,f6\n")
	for i := 0; i < 1500; i++ {
		a := fmt.Sprint(i % 5)
		if i%9 == 0 {
			a = ""
		}
		fmt.Fprintf(&text, "key-%d,filler-%d,%d,%s,2021-03-04 05:06:07,%d.5,%d,x,y\n", i%11, i, i*7, a, i, i%101)
	}
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	scan := csvScan(t, text.String(), 128)
	scan.Path, scan.Data = path, nil
	scan.Open = func() (io.ReadCloser, error) { return os.Open(path) }

	var wire atomic.Int64
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs = append(addrs, countingProxy(t, w.Addr(), &wire))
	}
	s, err := Connect(addrs, WithHeartbeat(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	spec := expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}}}
	notNull := expr.WhereNotNull("a")
	cases := []struct {
		name string
		plan algebra.Node
		pre  string // the optimized plan's pre-shuffle chain
	}{
		{"filter", &algebra.GroupBy{Input: &algebra.Selection{Input: scan, Where: notNull, Pred: notNull.Predicate()}, Spec: spec}, "cols,where,cols"},
		{"passthrough", &algebra.GroupBy{Input: scan, Spec: spec}, "cols"},
	}
	for _, tc := range cases {
		pruned, fired := optimizer.Optimize(tc.plan, optimizer.Default())
		info, reason := extractPlan(pruned)
		if reason != "" {
			t.Fatalf("%s: optimized plan does not ship (%s), rules %v:\n%s", tc.name, reason, fired, algebra.Render(pruned))
		}
		var ops []string
		for _, op := range info.spec.Pre {
			switch {
			case op.Where != nil:
				ops = append(ops, "where")
			case len(op.Rename) > 0:
				ops = append(ops, "rename")
			default:
				ops = append(ops, "cols")
			}
		}
		if got := strings.Join(ops, ","); got != tc.pre || info.spec.Group == nil || len(info.spec.Post) != 0 {
			t.Errorf("%s: shipped chain [%s] group=%v post=%d, want [%s] into a groupby:\n%s", tc.name, got, info.spec.Group != nil, len(info.spec.Post), tc.pre, algebra.Render(pruned))
		}

		wire.Store(0)
		checkSame(t, s, tc.plan)
		wide := wire.Load()
		wire.Store(0)
		checkSame(t, s, pruned)
		narrow := wire.Load()
		if narrow <= 0 || narrow >= wide {
			t.Errorf("%s: pruned plan moved %d bytes, unpruned %d; want fewer", tc.name, narrow, wide)
		}
		t.Logf("%s: %d wire bytes unpruned, %d pruned", tc.name, wide, narrow)
	}
	if st := s.ClusterStats(); st.Fallback != 0 || len(st.FallbackReasons) != 0 || st.LocalReruns != 0 {
		t.Errorf("a benchmark statement shape fell back: %+v", st)
	}
}

// The typed-routing shapes, distributed: workers route pieces cut from the
// resolved band (modin.RouteGroupBand), so the columns where a band's
// induction and a routed piece's used to differ — a value column
// integer-valued in some bands and fractional in others, a key spelled 1 in
// one band and 1.0 in another, a string key with too few rows per piece for
// Category, a value null throughout some bands, timestamps that differ only
// below the second as keys and as Min/Max inputs — come back cell-identical
// to the eager engine, from the cluster and not from a fallback.
func TestDistributedGroupByOnBandSensitiveColumns(t *testing.T) {
	var b strings.Builder
	b.WriteString("mixed_v,num_k,str_k,null_v,ts_k,ts_v,f\n")
	for i := 0; i < 96; i++ {
		mixed, num, null := fmt.Sprint(i%9), fmt.Sprint(1+i%3), fmt.Sprint(i%11)
		if i >= 40 {
			mixed += ".25"
		}
		if i >= 48 {
			num += ".0"
		}
		if i >= 64 {
			null = ""
		}
		fmt.Fprintf(&b, "%s,%s,%s,%s,2020-01-02T03:04:05.%09dZ,2021-06-07T08:09:10.%09d+05:30,%d\n",
			mixed, num, []string{"red", "green", "blue", "cyan", "plum"}[i%5], null, i%4, 1000-i, i)
	}
	aggs := func(col string) []expr.AggSpec {
		return []expr.AggSpec{
			{Col: col, Agg: expr.AggSum}, {Col: col, Agg: expr.AggMin}, {Col: col, Agg: expr.AggMax},
			{Col: col, Agg: expr.AggCountDistinct}, {Col: col, Agg: expr.AggFirst},
		}
	}
	specs := []expr.GroupBySpec{
		{Keys: []string{"str_k"}, Aggs: aggs("mixed_v")},
		{Keys: []string{"num_k"}, Aggs: aggs("null_v")},
		{Keys: []string{"ts_k"}, Aggs: append(aggs("ts_v")[1:], expr.AggSpec{Col: "mixed_v", Agg: expr.AggSum})},
	}
	s, _ := startCluster(t, 2)
	for _, bandRows := range []int{1, 7, 64} {
		for _, spec := range specs {
			for _, filtered := range []bool{false, true} {
				var in algebra.Node = csvScan(t, b.String(), bandRows)
				if filtered {
					in = &algebra.Selection{Input: in, Where: expr.WhereCompare("f", vector.CmpGe, types.IntValue(7))}
				}
				plan := &algebra.GroupBy{Input: in, Spec: spec}
				checkSame(t, s, plan)
				got, err := s.Execute(plan)
				if err != nil {
					t.Fatal(err)
				}
				want, err := eager.New().Execute(plan)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("band %d groupby %v filtered=%v: distributed result differs from eager:\n%s\nwant:\n%s",
						bandRows, spec.Keys, filtered, got, want)
				}
			}
		}
	}
	if st := s.ClusterStats(); st.Fallback != 0 || st.LocalReruns != 0 {
		t.Errorf("typed routing must stay distributed: %+v", st)
	}
}
