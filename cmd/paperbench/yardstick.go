package main

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// The sandbox this benchmark runs in is a small shared VM whose speed
// flips between regimes 25–30 % apart that last minutes: every wall time of
// a run — the measured path's, the reference path's, set-up — moves with
// it, and no statistic inside one run can tell a slow machine from a slow
// program (raw pass_p50_ms had an inter-quartile spread of 17–22 % over ten
// runs). The yardstick is a fixed piece of work, independent of the
// repository's code, timed between passes. Every reported time is
//
//	measured × yardNominalMS ÷ (median yardstick time around it)
//
// i.e. milliseconds of a machine on which the yardstick takes
// yardNominalMS, which is what it takes on the quiet two-core sandbox the
// workloads were sized on (there the factor is 1). The raw medians and the
// yardstick's own are printed beside the reported ones.
//
// The work was chosen by measurement: a sort, hash-map inserts and a
// four-accumulator stream over 1 MiB per processor slowed in proportion to
// the engines (log-log slope 0.9–1.05, correlation 0.8); a dependent
// multiply chain barely noticed the slow regime, and an allocating variant
// followed the garbage collector's phase instead of the machine.

const (
	yardWords     = 1 << 17 // 1 MiB per processor
	yardSortWords = 1 << 14
	yardNominalMS = 2.7
	// yardEvery is the least time between two samples; one takes about
	// yardNominalMS, so the yardstick stays near 7 % of a run.
	yardEvery = 40 * time.Millisecond
	// yardWindow is how far around an interval its samples are taken from.
	yardWindow = 250 * time.Millisecond
)

// yardstick runs the same work on every benchmark processor at once, like
// a pass that keeps all of them busy. It allocates nothing after start.
type yardstick struct {
	src, tmp [][]uint64
	maps     []map[uint64]int32
	sums     []uint64
	sink     uint64
	at       []time.Time // when each sample ended
	ms       []float64
}

func newYardstick(procs int) *yardstick {
	y := &yardstick{
		src: make([][]uint64, procs), tmp: make([][]uint64, procs),
		maps: make([]map[uint64]int32, procs), sums: make([]uint64, procs),
	}
	for i := range y.src {
		y.src[i] = make([]uint64, yardWords)
		y.tmp[i] = make([]uint64, yardWords)
		y.maps[i] = make(map[uint64]int32, yardSortWords)
		x := uint64(i + 1)
		for j := range y.src[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			y.src[i][j] = x
		}
	}
	for i := 0; i < 5; i++ { // fault the buffers in, grow the maps
		y.sample()
	}
	y.at, y.ms = y.at[:0], y.ms[:0]
	return y
}

func yardWork(src, tmp []uint64, m map[uint64]int32) uint64 {
	copy(tmp, src)
	slices.Sort(tmp[:yardSortWords])
	clear(m)
	for _, v := range src[:yardSortWords] {
		m[v&(yardSortWords/2-1)]++
	}
	var s0, s1, s2, s3 uint64
	for r := 0; r < 2; r++ {
		for i := 0; i+3 < len(tmp); i += 4 {
			s0 += tmp[i]
			s1 ^= tmp[i+1]
			s2 += tmp[i+2] >> 3
			s3 ^= tmp[i+3] << 1
		}
	}
	return s0 + s1 + s2 + s3 + uint64(len(m))
}

// sample times the work once, now.
func (y *yardstick) sample() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range y.src {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y.sums[i] = yardWork(y.src[i], y.tmp[i], y.maps[i])
		}()
	}
	wg.Wait()
	for _, s := range y.sums {
		y.sink ^= s
	}
	now := time.Now()
	y.at = append(y.at, now)
	y.ms = append(y.ms, float64(now.Sub(t0))/1e6)
}

// tick takes a sample if the last one is older than yardEvery, and returns
// the time it took doing so.
func (y *yardstick) tick() time.Duration {
	t0 := time.Now()
	if len(y.at) == 0 || t0.Sub(y.at[len(y.at)-1]) >= yardEvery {
		y.sample()
	}
	return time.Since(t0)
}

// window returns the samples taken between from and to, widened to the
// nearest ones while it holds fewer than three.
func (y *yardstick) window(from, to time.Time) []float64 {
	lo := sort.Search(len(y.at), func(i int) bool { return !y.at[i].Before(from) })
	hi := sort.Search(len(y.at), func(i int) bool { return y.at[i].After(to) })
	for hi-lo < 3 && (lo > 0 || hi < len(y.at)) {
		if lo > 0 {
			lo--
		}
		if hi < len(y.at) {
			hi++
		}
	}
	return y.ms[lo:hi]
}

// factor is what a time measured between from and to is multiplied by.
func (y *yardstick) factor(from, to time.Time) float64 {
	w := y.window(from, to)
	if len(w) == 0 {
		return 1
	}
	return yardNominalMS / median(w)
}

// bracket runs fn between two samples and returns the factor for it: for
// work too short to hold samples of its own.
func (y *yardstick) bracket(fn func()) float64 {
	y.sample()
	from := time.Now()
	fn()
	to := time.Now()
	y.sample()
	return y.factor(from, to)
}
