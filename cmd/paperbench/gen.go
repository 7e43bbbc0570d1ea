package main

import (
	"bufio"
	"math/rand"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/vector"
)

// Every input of the benchmark is generated in this file from -seed; the
// engines receive only the generated frames and files.

var taxiColumns = []string{
	"vendor_id", "pickup_datetime", "passenger_count", "trip_distance",
	"payment_type", "fare_amount", "tip_amount", "total_amount", "store_and_fwd_flag",
}

var (
	taxiVendors  = []string{"CMT", "VTS", "DDS"}
	taxiPayments = []string{"card", "cash", "dispute", "no charge"}
)

const taxiNullFraction = 0.06

// taxiRow is one generated trip: the column profile of the paper's Section
// 3.2 taxi data (a low-cardinality nullable group key, scattered nulls, a
// tall narrow shape).
type taxiRow struct {
	vendor, payment           int
	pickup                    int64
	passengers                int64
	distance, fare, tip       float64
	total                     float64
	passengersNull, tipNull   bool
	distanceNull, flagY, flag bool // flag=false means the null literal ""
}

func nextTaxiRow(rng *rand.Rand) taxiRow {
	const baseTime = int64(1262304000) // 2010-01-01 UTC, seconds
	var r taxiRow
	r.vendor = rng.Intn(len(taxiVendors))
	r.pickup = (baseTime + int64(rng.Intn(365*24*3600))) * 1e9
	if rng.Float64() < taxiNullFraction {
		r.passengersNull = true
	} else {
		r.passengers = 1 + int64(rng.Intn(6))
	}
	if rng.Float64() < taxiNullFraction {
		r.distanceNull = true
	} else {
		r.distance = rng.Float64() * 20
	}
	r.payment = rng.Intn(len(taxiPayments))
	r.fare = 2.5 + r.distance*2.1 + rng.Float64()*3
	if rng.Float64() < taxiNullFraction {
		r.tipNull = true
	} else {
		r.tip = r.fare * rng.Float64() * 0.3
	}
	r.total = r.fare + r.tip
	switch rng.Intn(10) {
	case 0:
		r.flag, r.flagY = true, true
	case 1:
	default:
		r.flag = true
	}
	return r
}

// genTaxiFrame builds the typed in-memory taxi frame.
func genTaxiFrame(seed int64, n int) *core.DataFrame {
	rng := rand.New(rand.NewSource(seed))
	vendor := make([]int32, n)
	pickup := make([]int64, n)
	passengers := make([]int64, n)
	passengersNull := make([]bool, n)
	distance := make([]float64, n)
	distanceNull := make([]bool, n)
	payment := make([]int32, n)
	fare := make([]float64, n)
	tip := make([]float64, n)
	tipNull := make([]bool, n)
	total := make([]float64, n)
	flag := make([]string, n)
	for i := 0; i < n; i++ {
		r := nextTaxiRow(rng)
		vendor[i], payment[i] = int32(r.vendor), int32(r.payment)
		pickup[i] = r.pickup
		passengers[i], passengersNull[i] = r.passengers, r.passengersNull
		distance[i], distanceNull[i] = r.distance, r.distanceNull
		fare[i], tip[i], tipNull[i], total[i] = r.fare, r.tip, r.tipNull, r.total
		flag[i] = flagText(r)
	}
	return core.MustNew(taxiColumns, []vector.Vector{
		vector.NewDict(vendor, taxiVendors, nil),
		vector.NewDatetime(pickup, nil),
		vector.NewInt(passengers, passengersNull),
		vector.NewFloat(distance, distanceNull),
		vector.NewDict(payment, taxiPayments, nil),
		vector.NewFloat(fare, nil),
		vector.NewFloat(tip, tipNull),
		vector.NewFloat(total, nil),
		vector.NewObjectFromStrings(flag),
	})
}

func flagText(r taxiRow) string {
	switch {
	case !r.flag:
		return ""
	case r.flagY:
		return "Y"
	}
	return "N"
}

// csvTruth is what the CSV statements must return, accumulated row by row
// while the file is written — a check independent of every engine.
type csvTruth struct {
	all     vendorSums // every row
	notNull vendorSums // rows with a passenger_count
}

// vendorSums is sum(total_amount) per vendor, with the vendors in
// first-appearance order — the groupby's output order.
type vendorSums struct {
	sum   [3]float64
	seen  [3]bool
	order []int
}

func (v *vendorSums) add(vendor int, total float64) {
	if !v.seen[vendor] {
		v.seen[vendor] = true
		v.order = append(v.order, vendor)
	}
	v.sum[vendor] += total
}

// writeTaxiCSV streams the taxi rows to path and returns the truth sums.
func writeTaxiCSV(path string, seed int64, n int) (csvTruth, error) {
	f, err := os.Create(path)
	if err != nil {
		return csvTruth{}, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var truth csvTruth
	rng := rand.New(rand.NewSource(seed))
	var line []byte
	for j, c := range taxiColumns {
		if j > 0 {
			line = append(line, ',')
		}
		line = append(line, c...)
	}
	line = append(line, '\n')
	w.Write(line)
	for i := 0; i < n; i++ {
		r := nextTaxiRow(rng)
		truth.all.add(r.vendor, r.total)
		if !r.passengersNull {
			truth.notNull.add(r.vendor, r.total)
		}
		line = line[:0]
		line = append(line, taxiVendors[r.vendor]...)
		line = append(line, ',')
		line = strconv.AppendInt(line, r.pickup, 10)
		line = append(line, ',')
		if !r.passengersNull {
			line = strconv.AppendInt(line, r.passengers, 10)
		}
		line = append(line, ',')
		if !r.distanceNull {
			line = strconv.AppendFloat(line, r.distance, 'g', -1, 64)
		}
		line = append(line, ',')
		line = append(line, taxiPayments[r.payment]...)
		line = append(line, ',')
		line = strconv.AppendFloat(line, r.fare, 'g', -1, 64)
		line = append(line, ',')
		if !r.tipNull {
			line = strconv.AppendFloat(line, r.tip, 'g', -1, 64)
		}
		line = append(line, ',')
		line = strconv.AppendFloat(line, r.total, 'g', -1, 64)
		line = append(line, ',')
		line = append(line, flagText(r)...)
		line = append(line, '\n')
		w.Write(line) // bufio keeps the first error for Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return csvTruth{}, err
	}
	return truth, f.Close()
}

var (
	factColumns = []string{"key", "amount", "qty", "region", "flag"}
	dimColumns  = []string{"key", "weight", "category"}
	factRegions = []string{"north", "south", "east", "west", "centre", "coast", "hills", "plains"}
)

// genFactFrame builds the wide-shuffle fact frame: n rows over keySpace
// possible keys, so about keySpace·(1−e^(−n/keySpace)) distinct keys.
func genFactFrame(seed int64, n, keySpace int) *core.DataFrame {
	rng := rand.New(rand.NewSource(seed))
	key := make([]int64, n)
	amount := make([]float64, n)
	qty := make([]int64, n)
	qtyNull := make([]bool, n)
	region := make([]int32, n)
	flag := make([]string, n)
	for i := 0; i < n; i++ {
		key[i] = int64(rng.Intn(keySpace))
		amount[i] = rng.Float64() * 1000
		if rng.Float64() < taxiNullFraction {
			qtyNull[i] = true
		} else {
			qty[i] = 1 + int64(rng.Intn(10))
		}
		region[i] = int32(rng.Intn(len(factRegions)))
		if rng.Intn(4) == 0 {
			flag[i] = "Y"
		} else {
			flag[i] = "N"
		}
	}
	return core.MustNew(factColumns, []vector.Vector{
		vector.NewInt(key, nil),
		vector.NewFloat(amount, nil),
		vector.NewInt(qty, qtyNull),
		vector.NewDict(region, factRegions, nil),
		vector.NewObjectFromStrings(flag),
	})
}

// genDimFrame builds the join's build side: every key in [0, n) exactly
// once, in shuffled order.
func genDimFrame(seed int64, n int) *core.DataFrame {
	rng := rand.New(rand.NewSource(seed))
	key := make([]int64, n)
	for i, p := range rng.Perm(n) {
		key[i] = int64(p)
	}
	weight := make([]float64, n)
	category := make([]int64, n)
	for i := range weight {
		weight[i] = rng.Float64()
		category[i] = int64(rng.Intn(20))
	}
	return core.MustNew(dimColumns, []vector.Vector{
		vector.NewInt(key, nil),
		vector.NewFloat(weight, nil),
		vector.NewInt(category, nil),
	})
}
