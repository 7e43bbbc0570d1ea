package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/df"
	"repro/internal/dferrors"
)

func testFrame(t *testing.T, salt int) *df.DataFrame {
	t.Helper()
	records := make([][]any, 0, 60)
	for i := 0; i < 60; i++ {
		records = append(records, []any{fmt.Sprintf("g%d", i%4), i + salt, float64(i) * 1.5})
	}
	d, err := df.New([]string{"k", "v", "x"}, records)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func aggSpec(dataset string) QuerySpec {
	return QuerySpec{
		Name:    "agg",
		Dataset: dataset,
		Ops: []OpSpec{
			{Op: "where", Col: "v", Cmp: ">", Value: json.RawMessage("10")},
			{Op: "groupby", By: []string{"k"}, Aggs: []AggSpec{{Col: "x", Agg: "mean", As: "avg_x"}}},
			{Op: "sort", Keys: []SortKeySpec{{Col: "avg_x", Desc: true}}},
		},
	}
}

// Fingerprint-equal queries from different sessions — even different
// tenants — share one cache entry: the second run is a result hit.
func TestCacheHitAcrossSessions(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	s.RegisterDataset("d", testFrame(t, 0))
	alice := s.OpenSession("alice", df.ModeEager)
	bob := s.OpenSession("bob", df.ModeEager)

	first, err := s.RunQuery(alice, aggSpec("d"))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Errorf("first run cache = %q, want miss", first.Cache)
	}
	second, err := s.RunQuery(bob, aggSpec("d"))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Errorf("second run cache = %q, want hit", second.Cache)
	}
	if first.Rows != second.Rows || len(first.Preview) != len(second.Preview) {
		t.Errorf("cached result differs: %+v vs %+v", first, second)
	}
	stats := s.Stats()
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v", stats.Cache)
	}
}

// A different literal or shape must not share the entry.
func TestCacheDistinguishesPlans(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	s.RegisterDataset("d", testFrame(t, 0))
	id := s.OpenSession("alice", df.ModeEager)

	if _, err := s.RunQuery(id, aggSpec("d")); err != nil {
		t.Fatal(err)
	}
	other := aggSpec("d")
	other.Ops[0].Value = json.RawMessage("11") // different literal
	res, err := s.RunQuery(id, other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache == "hit" {
		t.Error("different literal must not hit the cache")
	}
}

// Re-registering a dataset is a rebind: cached results over the old frame
// stop matching and the fresh data is served.
func TestCacheInvalidationOnRebind(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	s.RegisterDataset("d", testFrame(t, 0))
	id := s.OpenSession("alice", df.ModeEager)

	spec := QuerySpec{Dataset: "d", Ops: []OpSpec{
		{Op: "where", Col: "v", Cmp: ">=", Value: json.RawMessage("1000")},
	}}
	before, err := s.RunQuery(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if before.Rows != 0 {
		t.Fatalf("want 0 rows before rebind, got %d", before.Rows)
	}
	if res, _ := s.RunQuery(id, spec); res.Cache != "hit" {
		t.Fatalf("repeat should hit, got %q", res.Cache)
	}

	s.RegisterDataset("d", testFrame(t, 1000)) // rebind: v now starts at 1000
	after, err := s.RunQuery(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache == "hit" {
		t.Error("rebind must invalidate the cached result")
	}
	if after.Rows == 0 {
		t.Error("rebound data should match the predicate")
	}
}

// A query whose estimated output can never fit the tenant budget fails with
// the typed sentinel, and the HTTP layer maps it to 429.
func TestBudgetRejection(t *testing.T) {
	s := New(Config{TenantBudgetCells: 20, QueueWait: 1})
	defer s.Shutdown()
	s.RegisterDataset("d", testFrame(t, 0))
	id := s.OpenSession("alice", df.ModeEager)

	_, err := s.RunQuery(id, QuerySpec{Dataset: "d", Ops: []OpSpec{
		{Op: "select", Cols: []string{"k", "v", "x"}},
	}})
	if !errors.Is(err, dferrors.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if got := statusFor(err); got != http.StatusTooManyRequests {
		t.Errorf("statusFor = %d, want 429", got)
	}
	if s.Tenant("alice").Stats().Rejected == 0 {
		t.Error("rejection should be counted")
	}
}

// With the cache off, queries run as session statements; admission control
// spills cold session blocks to keep the tenant under budget rather than
// accumulating every materialized result.
func TestBudgetSpillsColdBlocks(t *testing.T) {
	s := New(Config{CacheOff: true, TenantBudgetCells: 400})
	defer s.Shutdown()
	s.RegisterDataset("d", testFrame(t, 0))
	id := s.OpenSession("alice", df.ModeEager)

	for i := 10; i < 50; i += 10 {
		spec := QuerySpec{Dataset: "d", Ops: []OpSpec{
			{Op: "where", Col: "v", Cmp: ">", Value: json.RawMessage(fmt.Sprint(i))},
		}}
		if _, err := s.RunQuery(id, spec); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if usage := s.Tenant("alice").Usage(); usage > 400 {
			t.Fatalf("tenant usage %d exceeds budget after query %d", usage, i)
		}
	}
	if s.Tenant("alice").Stats().SpillRounds == 0 {
		t.Error("staying under budget should have required spilling")
	}
}

// Many sessions across many tenants issuing fingerprint-equal queries
// concurrently: exercised under -race in CI.
func TestConcurrentMultiTenant(t *testing.T) {
	s := New(Config{TenantBudgetCells: 50_000})
	defer s.Shutdown()
	s.Start()
	s.RegisterDataset("d", testFrame(t, 0))

	const tenants, perTenant = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, tenants*perTenant)
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("t%d", ti)
		for si := 0; si < perTenant; si++ {
			wg.Add(1)
			go func(tenant string, salt int) {
				defer wg.Done()
				id := s.OpenSession(tenant, df.ModeOpportunistic)
				defer s.CloseSession(id)
				for q := 0; q < 5; q++ {
					spec := aggSpec("d")
					if salt%2 == 0 {
						spec.Ops[0].Value = json.RawMessage(fmt.Sprint(10 + q))
					}
					if _, err := s.RunQuery(id, spec); err != nil {
						errs <- err
						return
					}
				}
			}(tenant, si)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Cache.Hits == 0 {
		t.Error("concurrent identical queries should produce cache hits")
	}
}

// Closed sessions answer with the sentinel and HTTP 410.
func TestClosedSession(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	s.RegisterDataset("d", testFrame(t, 0))
	id := s.OpenSession("alice", df.ModeEager)
	if err := s.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	_, err := s.RunQuery(id, aggSpec("d"))
	if !errors.Is(err, dferrors.ErrSessionClosed) {
		t.Fatalf("want ErrSessionClosed, got %v", err)
	}
	if statusFor(err) != http.StatusGone {
		t.Errorf("closed session should map to 410")
	}
}

// Full HTTP round trip: register a dataset, open a session, run the same
// query twice, check the cache indicator and the stats endpoint.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path string, body any, out any) *http.Response {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp
	}

	post("/datasets", map[string]any{"name": "taxi", "taxi_rows": 500}, nil)
	var sess struct {
		ID string `json:"id"`
	}
	post("/sessions", map[string]string{"tenant": "alice", "mode": "eager"}, &sess)
	if sess.ID == "" {
		t.Fatal("no session id")
	}

	spec := QuerySpec{Dataset: "taxi", Ops: []OpSpec{
		{Op: "where", Col: "passenger_count", Cmp: ">=", Value: json.RawMessage("2")},
		{Op: "groupby", By: []string{"payment_type"}, Aggs: []AggSpec{{Col: "total_amount", Agg: "mean"}}},
	}}
	var r1, r2 QueryResult
	post("/sessions/"+sess.ID+"/query", spec, &r1)
	post("/sessions/"+sess.ID+"/query", spec, &r2)
	if r1.Cache != "miss" || r2.Cache != "hit" {
		t.Errorf("cache sequence = %q, %q; want miss, hit", r1.Cache, r2.Cache)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache.Hits == 0 || stats.Queries != 2 {
		t.Errorf("stats = %+v", stats)
	}

	// Unknown column surfaces as 400 through the sentinel mapping.
	bad := QuerySpec{Dataset: "taxi", Ops: []OpSpec{{Op: "select", Cols: []string{"nope"}}}}
	resp = post("/sessions/"+sess.ID+"/query", bad, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown column status = %d, want 400", resp.StatusCode)
	}
}

// Oversized bodies are refused with 413 on every decoding route, and a
// generated dataset above maxTaxiRows with 400, before anything is built.
func TestHTTPBoundsRequestInput(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	huge := []byte(`{"name": "x", "tenant": "x", "csv": "` + strings.Repeat("a", maxBodyBytes) + `"}`)
	for _, path := range []string{"/datasets", "/sessions", "/sessions/s1/query"} {
		if got := post(path, huge); got != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(huge), got)
		}
	}

	big, _ := json.Marshal(map[string]any{"name": "taxi", "taxi_rows": maxTaxiRows + 1})
	if got := post("/datasets", big); got != http.StatusBadRequest {
		t.Errorf("taxi_rows %d: status %d, want 400", maxTaxiRows+1, got)
	}
	ok, _ := json.Marshal(map[string]any{"name": "taxi", "taxi_rows": 10})
	if got := post("/datasets", ok); got != http.StatusOK {
		t.Errorf("taxi_rows 10: status %d, want 200", got)
	}
}
