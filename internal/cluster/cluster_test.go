package cluster

import (
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
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// csvScan builds a buffer-backed scan node over text, probing the header
// the way df.ScanCSVString does.
func csvScan(t *testing.T, text string, bandRows int) *algebra.Scan {
	t.Helper()
	data := []byte(text)
	s := &algebra.Scan{
		Name:     "csv",
		Data:     data,
		Options:  core.DefaultCSVOptions(),
		SizeHint: int64(len(data)),
		BandRows: bandRows,
	}
	cols, err := s.Probe()
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	s.Columns = cols
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

// A COUNT/SIZE/MIN/MAX groupby routes one state row per group from each
// band: on two workers it stays distributed and comes back cell-identical
// to the local engine and to eager — keyless, keyed, on two keys and as
// labels, at band sizes of a few rows and of many.
func TestDistributedStateGroupByMatchesLocal(t *testing.T) {
	s, _ := startCluster(t, 2)
	aggs := []expr.AggSpec{
		{Agg: expr.AggSize}, {Col: "v", Agg: expr.AggCount},
		{Col: "v", Agg: expr.AggMin}, {Col: "v", Agg: expr.AggMax},
		{Col: "name", Agg: expr.AggMin}, {Col: "name", Agg: expr.AggMax},
	}
	specs := []expr.GroupBySpec{
		{Aggs: aggs},
		{Keys: []string{"k"}, Aggs: aggs},
		{Keys: []string{"name", "k"}, Aggs: aggs},
		{Keys: []string{"name"}, Aggs: aggs, AsLabels: true},
	}
	for _, bandRows := range []int{7, 64} {
		for _, spec := range specs {
			if !algebra.ExactCombine(spec) {
				t.Fatalf("%v does not take the state path", spec.Aggs)
			}
			plan := &algebra.GroupBy{Input: csvScan(t, genCSV(700), bandRows), Spec: spec}
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
				t.Errorf("band %d groupby %v: distributed result differs from eager:\n%s\nwant:\n%s", bandRows, spec.Keys, got, want)
			}
		}
	}
	if st := s.ClusterStats(); st.Fallback != 0 || st.LocalReruns != 0 {
		t.Errorf("state groupbys must stay distributed: %+v", st)
	}
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

// A distributable plan over a small in-memory frame ships to the workers,
// so its description must not carry the local engine's inline line; a plan
// that falls back runs on the local engine, inline, and says so.
func TestExplainInlineOnlyWhenLocal(t *testing.T) {
	s, _ := startCluster(t, 2)
	src := &algebra.Source{DF: core.MustFromRecords([]string{"k", "v"}, [][]any{
		{"a", int64(1)}, {"b", int64(2)}, {"a", int64(3)},
	})}
	distributed := &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{
		Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}},
	}}
	fallback := &algebra.Selection{Input: src, Pred: func(expr.Row) bool { return true }, Desc: "opaque"}
	for _, c := range []struct {
		name, plan string
		node       algebra.Node
		inline     bool
	}{
		{"distribute", "cluster: distribute (2 workers)\n", distributed, false},
		{"fallback", "cluster: local fallback (opaque closure)\n", fallback, true},
	} {
		desc := s.DescribePhysical(c.node)
		if !strings.HasSuffix(desc, c.plan) {
			t.Errorf("%s: description does not end with %q:\n%s", c.name, c.plan, desc)
		}
		if got := strings.Contains(desc, "inline:"); got != c.inline {
			t.Errorf("%s: inline line present = %v, want %v:\n%s", c.name, got, c.inline, desc)
		}
	}
	if _, err := s.Execute(distributed); err != nil {
		t.Fatal(err)
	}
	if s.ClusterStats().Distributed != 1 {
		t.Errorf("the small source plan did not distribute (stats %+v)", s.ClusterStats())
	}
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

// The control messages carry the plan in its one binary form, its scan leaf
// and the modin stats themselves: the plan a worker decodes from a RunBands
// request must be exactly the plan the coordinator cut, zero-term Where and
// all.
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
	src := &algebra.Source{DF: core.MustNew([]string{"k"}, []vector.Vector{vector.NewInt([]int64{1}, nil)})}
	var chain algebra.Node = &algebra.Selection{Input: src, Where: where}
	chain = &algebra.Selection{Input: chain, Where: &expr.Where{}}
	chain = &algebra.Rename{Input: chain, Mapping: map[string]string{"v": "value"}}
	chain = &algebra.Projection{Input: chain, Cols: []string{"k", "value"}}
	group := &algebra.GroupBy{Input: chain, Spec: expr.GroupBySpec{
		Keys:     []string{"k"},
		Aggs:     []expr.AggSpec{{Col: "value", Agg: expr.AggSum}, {Col: "value", Agg: expr.AggMean, As: "avg"}},
		AsLabels: true,
		Sorted:   true,
	}}
	plans := []algebra.Node{
		&algebra.Selection{Input: group, Where: expr.WhereCompare("avg", vector.CmpGt, types.FloatValue(0.5))},
		&algebra.Sort{Input: chain, Order: expr.SortOrder{{Col: "v", Desc: true}, {Col: "name"}}},
		&algebra.Sort{Input: src, ByLabels: true},
		&algebra.Sort{Input: csvScan(t, genCSV(20), 8), Order: expr.SortOrder{{Col: "name"}}},
	}
	for _, plan := range plans {
		data, leaves, err := algebra.EncodePlan(plan)
		if err != nil {
			t.Fatalf("encode %s: %v", plan.Describe(), err)
		}
		scan, _ := leaves[0].(*algebra.Scan)
		sent := &RunBandsReq{QID: "q", Plan: PlanSpec{Scan: scan, Buckets: 3, Plan: data},
			Bands: []BandTask{{Band: 1, Range: core.BandRange{Offset: 9, Length: 40, Row: 2, Line: 3, Rows: 2}}, {Band: 2, Block: []byte{1, 2}}}}
		got := &RunBandsReq{}
		roundTrip(sent, got)
		decoded, err := algebra.DecodePlan(got.Plan.Plan, leaves)
		if err != nil {
			t.Fatalf("decode %s: %v", plan.Describe(), err)
		}
		if !reflect.DeepEqual(decoded, plan) {
			t.Fatalf("plan changed on the wire:\n sent %s\n got  %s", algebra.Render(plan), algebra.Render(decoded))
		}
		prepared, err := preparePlan(got.Plan)
		if err != nil {
			t.Fatalf("prepare %s: %v", plan.Describe(), err)
		}
		want, _ := cutPlan(plan)
		if kernelNames(prepared.pre) != kernelNames(want.pre) || kernelNames(prepared.post) != kernelNames(want.post) ||
			!reflect.DeepEqual(prepared.group, want.group) || (prepared.sort == nil) != (want.sort == nil) {
			t.Fatalf("worker cut differs from the coordinator's for\n%s", algebra.Render(plan))
		}
	}
	tuples := [][]types.Value{{types.String("a"), types.IntValue(1)}, {types.Null(), types.BoolValue(true)}}
	roundTrip(&RunBandsResp{Results: []BandResult{
		{Group: &modin.GroupBandStat{Hashes: []uint64{7, 1 << 63}, Exemplars: tuples}, Sizes: []int64{10, 0, 3}},
		{Sort: tuples},
	}}, &RunBandsResp{})
	roundTrip(&PartitionReq{QID: "q", Bands: []int{0, 2}, Bounds: tuples}, &PartitionReq{})
}

// kernelNames lists a chain's kernels by name and operator, leaf first.
func kernelNames(chain []physical.Kernel) string {
	names := make([]string, len(chain))
	for i, k := range chain {
		names[i] = k.Name + ":" + k.Desc
	}
	return strings.Join(names, ",")
}

// A malformed shipped plan is refused in-band: the worker answers RunBands
// with an error and keeps no state for the query, the coordinator re-runs
// the query locally, and the worker stays healthy. A proxy in front of a
// live worker truncates the plan of every RunBands it forwards.
func TestMalformedPlanRerunsLocally(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return // listener closed with the test
			}
			go func() {
				defer down.Close()
				up, err := net.Dial("tcp", w.Addr())
				if err != nil {
					return
				}
				defer up.Close()
				for {
					kind, payload, err := readMsg(down)
					if err != nil {
						return
					}
					if kind == mRunBands {
						var req RunBandsReq
						if decodePayload(payload, &req) != nil {
							return
						}
						req.Plan.Plan = req.Plan.Plan[:len(req.Plan.Plan)/2]
						if payload, err = encodePayload(&req); err != nil {
							return
						}
					}
					if writeFrame(up, kind, payload) != nil {
						return
					}
					status, body, err := readMsg(up)
					if err != nil || writeFrame(down, status, body) != nil {
						return
					}
				}
			}()
		}
	}()
	s, err := Connect([]string{ln.Addr().String()}, WithHeartbeat(0), WithRPCTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	plan := &algebra.GroupBy{Input: csvScan(t, genCSV(300), 50), Spec: expr.GroupBySpec{
		Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}},
	}}
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

	// Straight to the worker: the error comes back in-band on a connection
	// that keeps serving, and no query state is left behind.
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = call(conn, 5*time.Second, mRunBands, &RunBandsReq{QID: "bad", Plan: PlanSpec{Plan: []byte("not a plan")}, Bands: []BandTask{{Band: 0}}}, &RunBandsResp{})
	if _, inBand := err.(*remoteError); !inBand {
		t.Fatalf("malformed plan: got %v, want an in-band error", err)
	}
	if err := call(conn, 5*time.Second, mPing, &emptyResp{OK: true}, &emptyResp{}); err != nil {
		t.Fatalf("worker stopped answering after a malformed plan: %v", err)
	}
	w.mu.Lock()
	left := len(w.queries)
	w.mu.Unlock()
	if left != 0 {
		t.Fatalf("worker kept state for %d queries after refusing their plans", left)
	}
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

// Every query id a worker sees is released again, whatever the run's
// outcome: after a distributed query, a query whose remote error re-runs it
// locally, and a query whose first attempt loses a worker and is retried
// on the survivors, no live worker holds any query state.
func TestWorkersReleaseEveryQuery(t *testing.T) {
	s, workers := startCluster(t, 3)
	scan := csvScan(t, genCSV(900), 60)
	group := &algebra.GroupBy{Input: scan, Spec: expr.GroupBySpec{
		Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}},
	}}
	checkSame(t, s, group)
	if _, err := s.Execute(&algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "nope"}}}); err == nil {
		t.Fatal("sort on an unknown column succeeded")
	}
	killed := false
	s.OnPhase = func(phase string) {
		if phase == "bands" && !killed {
			killed = true
			workers[2].Close()
		}
	}
	checkSame(t, s, &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "v"}, {Col: "name"}}})
	st := s.ClusterStats()
	if st.LocalReruns != 1 || st.DeadWorkers != 1 || st.ResubmittedBands == 0 {
		t.Fatalf("want one local re-run and one retried attempt, stats %+v", st)
	}
	for _, w := range workers[:2] {
		w.mu.Lock()
		left := len(w.queries)
		w.mu.Unlock()
		if left != 0 {
			t.Errorf("worker %s still holds state for %d queries", w.Addr(), left)
		}
	}
}

// A scan of one band on three workers: the band has one owner, every merge
// is placed on it, and group and sort still come back cell-identical to the
// local engine without a local re-run.
func TestOneBandOnThreeWorkers(t *testing.T) {
	s, _ := startCluster(t, 3)
	scan := csvScan(t, genCSV(200), 1000)
	checkSame(t, s, &algebra.GroupBy{Input: scan, Spec: expr.GroupBySpec{
		Keys: []string{"name"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Col: "k", Agg: expr.AggMax}},
	}})
	checkSame(t, s, &algebra.Sort{Input: scan, Order: expr.SortOrder{{Col: "v", Desc: true}, {Col: "k"}}})
	if st := s.ClusterStats(); st.LocalReruns != 0 {
		t.Fatalf("a one-band query re-ran locally: %+v", st)
	}
}

// Merge placement must follow the reported piece bytes: the worker holding
// the most bytes of a bucket hosts its merge.
func TestMergePlacementFollowsBytes(t *testing.T) {
	wa := &workerRef{addr: "a"}
	wb := &workerRef{addr: "b"}
	owners := []*workerRef{wa, wb}
	sizes := [][]int64{
		{100, 5},  // band 0 on a
		{10, 900}, // band 1 on b
		{50, 10},  // band 2 on a
	}
	if got := placeMerge(owners, sizes, 0); got != wa {
		t.Fatalf("bucket 0 placed on %s, want a (150 bytes vs 10)", got.addr)
	}
	if got := placeMerge(owners, sizes, 1); got != wb {
		t.Fatalf("bucket 1 placed on %s, want b (900 bytes vs 15)", got.addr)
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
		{"filter", &algebra.GroupBy{Input: &algebra.Selection{Input: scan, Where: notNull, Pred: notNull.Predicate()}, Spec: spec}, "projection,selection,projection"},
		{"passthrough", &algebra.GroupBy{Input: scan, Spec: spec}, "projection"},
	}
	for _, tc := range cases {
		pruned, fired := optimizer.Optimize(tc.plan, optimizer.Default())
		cut, reason := cutPlan(pruned)
		if reason != "" {
			t.Fatalf("%s: optimized plan does not ship (%s), rules %v:\n%s", tc.name, reason, fired, algebra.Render(pruned))
		}
		data, _, err := algebra.EncodePlan(pruned)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		shipped, err := preparePlan(PlanSpec{Buckets: 2, Plan: data})
		if err != nil {
			t.Fatalf("%s: worker refused the plan: %v", tc.name, err)
		}
		for _, p := range []*stagePlan{cut, shipped.stagePlan} {
			var ops []string
			for _, k := range p.pre {
				ops = append(ops, k.Name)
			}
			if got := strings.Join(ops, ","); got != tc.pre || p.group == nil || len(p.post) != 0 {
				t.Errorf("%s: shipped chain [%s] group=%v post=%d, want [%s] into a groupby:\n%s", tc.name, got, p.group != nil, len(p.post), tc.pre, algebra.Render(pruned))
			}
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
// resolved band (modin.GroupBand.Route), so the columns where a band's
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
