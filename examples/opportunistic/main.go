// The opportunistic example demonstrates the Section 6 user model: the same
// interactive session — ingest, filter, inspect the head, aggregate — run
// under eager, lazy, and opportunistic evaluation, showing where each mode
// spends its time, how head() is served from a prioritized prefix plan, and
// how materialized intermediates are reused across statements.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/df"
	"repro/internal/algebra"
	"repro/internal/workload"
)

func main() {
	frame := algebra.InduceFrame(workload.Taxi(workload.DefaultTaxiOptions(300_000)))
	data := df.FromFrame(frame)

	for _, mode := range []df.Mode{df.ModeEager, df.ModeLazy, df.ModeOpportunistic} {
		s := df.NewSession(df.NewModinEngine(), mode)
		sessionStart := time.Now()

		// Statement 1: bind the data.
		taxi := s.Bind("taxi", data)

		// Statement 2: filter to card payments.
		start := time.Now()
		paid, err := s.Query("card-payments", taxi.Lazy().Where(df.Eq("payment_type", df.Str("card"))))
		if err != nil {
			log.Fatal(err)
		}
		issue := time.Since(start)

		// The user thinks; under opportunistic evaluation the system
		// computes in the background during this pause.
		time.Sleep(30 * time.Millisecond)

		// Statement 3: inspect the head — the prefix view the paper says
		// should be prioritized.
		start = time.Now()
		head, err := paid.Head(5)
		if err != nil {
			log.Fatal(err)
		}
		headLatency := time.Since(start)

		// Statement 4: aggregate, building on the filtered intermediate.
		start = time.Now()
		grouped, err := s.Query("by-vendor", paid.Lazy().GroupBy("vendor_id").Mean("total_amount"))
		if err != nil {
			log.Fatal(err)
		}
		result, err := grouped.Collect()
		if err != nil {
			log.Fatal(err)
		}
		collectLatency := time.Since(start)

		statements, full, partial, reuse, background := s.Stats()
		fmt.Printf("mode=%-14s issue=%-10v head=%-10v collect=%-10v total=%v\n",
			mode, issue, headLatency, collectLatency, time.Since(sessionStart))
		fmt.Printf("  statements=%d full-evals=%d partial-evals=%d reuse-hits=%d background=%d\n",
			statements, full, partial, reuse, background)
		if mode == df.ModeOpportunistic {
			fmt.Println("  head preview served during think time:")
			fmt.Println(head)
			fmt.Println("  aggregate:")
			fmt.Println(result)
		}
	}
	fmt.Println("shape check: eager pays at statement-issue time; lazy pays at head/collect;")
	fmt.Println("opportunistic returns control instantly and has results ready after think time.")
}
