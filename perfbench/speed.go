package main

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The machine this benchmark runs on is a share of a busy host: its
// speed moves by tens of percent from one minute to the next, so a
// time measured in one run is not comparable with one measured a few
// minutes later. Every timed step is therefore bracketed by short
// slices of a fixed reference workload that is the benchmark's own code
// (JSON encoding, a map, float math and a sort, which is the kind of
// work the broker does), and the step's time is scaled to the speed the
// reference saw around it. A change to the program moves the step and
// not the reference; a slow stretch of the host moves both.

// refNominal is the reference speed every timing is scaled to, in
// reference units per second per goroutine: what the reference
// measured on the 2-vCPU Xeon VM the benchmark was calibrated on. It
// fixes the scale of the reported numbers only.
const refNominal = 16000.0

// refSlice is how long one reference measurement runs.
const refSlice = 40 * time.Millisecond

type refRow struct {
	ID      string  `json:"id"`
	Round   int     `json:"round"`
	Price   float64 `json:"price"`
	Profit  float64 `json:"profit"`
	Sellers []int   `json:"sellers"`
}

var refDoc = func() []refRow {
	rows := make([]refRow, 48)
	for i := range rows {
		rows[i] = refRow{
			ID:      "job-" + strconv.Itoa(i),
			Round:   i * 37,
			Price:   1 + float64(i)/7,
			Profit:  2 + float64(i*i)/11,
			Sellers: []int{i, i + 1, i + 2, i + 3, i + 4},
		}
	}
	return rows
}()

// refSink keeps the reference's results live.
var refSink atomic.Int64

// refUnit is one unit of the reference workload.
func refUnit() {
	buf, _ := json.Marshal(refDoc)
	m := make(map[string]float64, len(refDoc))
	for i, r := range refDoc {
		m[r.ID] = math.Log1p(r.Price)*math.Sqrt(r.Profit) + math.Exp(-float64(i)/16)
	}
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	refSink.Add(int64(len(buf)) + int64(xs[0]))
}

// speed is one reference measurement per goroutine: units per second
// of wall time, and units per second of the CPU time the process was
// given, which leaves out time the host gave to other tenants.
type speed struct{ wall, cpu float64 }

// refRate runs the reference on n goroutines for refSlice.
func refRate(n int) speed {
	var units atomic.Int64
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	deadline := start.Add(refSlice)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := int64(0)
			for time.Now().Before(deadline) {
				refUnit()
				k++
			}
			units.Add(k)
		}()
	}
	wg.Wait()
	u := float64(units.Load()) / float64(n)
	return speed{
		wall: u / time.Since(start).Seconds(),
		cpu:  u / max(1e-9, (cpuTime()-cpu0).Seconds()) * float64(n),
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gauge tracks the machine's speed across a sequence of timed steps.
// It measures the reference once before the first step and once after
// every step; a step's speed is the mean of the measurements on its
// two sides. The reference runs on as many goroutines as the steps
// keep busy: a host runs one busy CPU faster than two, by a margin
// that moves with how busy the host is.
type gauge struct {
	n    int
	last speed
}

func newGauge(n int) *gauge { return &gauge{n: n, last: refRate(n)} }

// slowdown is how much slower than nominal the machine ran during a
// step: a rate measured in the step is multiplied by it, a time divided
// by it. wall counts the time the host gave to other tenants, cpu
// leaves it out.
type slowdown struct{ wall, cpu float64 }

// step measures the reference after a step and returns the slowdown
// during it.
func (g *gauge) step() slowdown {
	r := refRate(g.n)
	f := slowdown{
		wall: refNominal / ((g.last.wall + r.wall) / 2),
		cpu:  refNominal / ((g.last.cpu + r.cpu) / 2),
	}
	g.last = r
	return f
}
