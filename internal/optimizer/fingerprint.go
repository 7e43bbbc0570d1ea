package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
)

// Plan fingerprinting for the server's query-plan cache: two plans get the
// same fingerprint exactly when they compute the same result from the same
// source frames. The key is the plan's binary form (algebra.EncodePlan),
// which keeps operator shapes and literal constants but strips every name
// the user chose — statement names never reach the plan, and source frames
// are positional placeholders in first-reference order (the same
// *core.DataFrame referenced twice reuses its placeholder, so self-joins
// fingerprint correctly). Thus Alice's `SELECTION(x > 3)` over a frame and
// Bob's identical query over the same shared frame collide — which is the
// point — while a different literal, operator, or column keeps them apart.
//
// Plans carrying opaque Go closures (a Selection with only a Pred, any Map)
// have no binary form, and plans reading a Scan have no frame whose identity
// pins their input: Fingerprint reports ok=false and such plans bypass the
// cache.

// Fingerprint canonicalizes the plan. It returns the cache key, the source
// frames in placeholder order, and whether the plan is cacheable at all.
func Fingerprint(n algebra.Node) (key string, sources []*core.DataFrame, ok bool) {
	data, leaves, err := algebra.EncodePlan(n)
	if err != nil {
		return "", nil, false
	}
	sources = make([]*core.DataFrame, len(leaves))
	for i, leaf := range leaves {
		src, isFrame := leaf.(*algebra.Source)
		if !isFrame {
			return "", nil, false
		}
		sources[i] = src.DF
	}
	return string(data), sources, true
}

// SourceVersion summarizes the identity of a plan's bound sources: two
// fingerprint-equal plans share materialized results only when their
// sources are version-identical too. Frames are immutable in this system —
// a rebind produces a new *core.DataFrame — so pointer identity is exactly
// version identity, and a rebound base frame silently misses instead of
// serving stale rows.
func SourceVersion(sources []*core.DataFrame) string {
	var b strings.Builder
	for _, df := range sources {
		fmt.Fprintf(&b, "%p;", df)
	}
	return b.String()
}
