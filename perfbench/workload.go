package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// opKind is one broker operation the generator issues.
type opKind int

const (
	opAdvance opKind = iota
	opStatus
	opSeries
	opEstimates
	opList
	opStats
	opSnapshot
	opCreate
	opDelete
	numOps
)

var opNames = [numOps]string{"advance", "status", "series", "estimates", "list", "stats", "snapshot", "create", "delete"}

func (k opKind) String() string { return opNames[k] }

// isRead reports whether the op is a GET (counted in read_p99_ms).
func (k opKind) isRead() bool {
	switch k {
	case opStatus, opSeries, opEstimates, opList, opStats:
		return true
	}
	return false
}

// mix is an op mix in integer weights (tenths of a percent).
type mix [numOps]int

// storeKind names the broker's durability backend for a workload.
type storeKind string

const (
	storeNone storeKind = "none"
	storeWAL  storeKind = "wal"
	storeFile storeKind = "file"
)

// workload is one traffic mix: the broker's configuration, the jobs it
// starts with, and the ops each phase sends.
type workload struct {
	name string

	jobs      int // base jobs created at set-up
	m, k      int // sellers per job, sellers recruited per round
	advRounds int // rounds per advance request
	store     storeKind

	// retireRounds, when positive, bounds a base job's life: once it
	// has played this many rounds the generator deletes it and a fresh
	// job takes its slot. A job's snapshot carries its whole ledger
	// journal (about 1.2 KB per round at m300), so without retirement
	// per-job state would grow with the program's speed.
	retireRounds int

	// ownSlots makes closed-loop client c keep to base job c mod jobs,
	// so the clients' rounds run in parallel instead of queueing on
	// one job's lock.
	ownSlots bool

	// warmRounds is how far set-up advances base job j.
	warmRounds func(j int) int

	closed mix // closed-loop op weights
	open   mix // open-loop op weights

	subscribers int // base jobs with one live /events subscriber

	// churnJobs are extra jobs created at set-up for the delete op.
	churnJobs int

	// recoveryPasses is how many restarts one recovery sample times
	// back to back, so a sample lasts a few hundred ms whatever the
	// state size. recovery_s is reported per restart.
	recoveryPasses int

	// byHand, when set, says why the workload is left out of
	// BENCHMARK.json: it runs by hand only.
	byHand string
}

// horizon is the JobRequest rounds of every job: far past anything a
// run plays, so no job finishes mid-run.
const horizon = 10_000_000

// readProbe is the open-loop status-read share of the two workloads
// whose closed loop sends only advances, so read_p99_ms exists on
// every workload.
var readProbe = mix{opAdvance: 750, opStatus: 250}

var workloads = []*workload{
	// The mechanism round, observer fan-out and advance-response build
	// dominate; WAL and per-request fixed costs do little.
	{
		name:         "advance-heavy",
		jobs:         2,
		m:            300,
		k:            10,
		advRounds:    25,
		store:        storeNone,
		retireRounds: 5000,
		ownSlots:     true,
		warmRounds:   func(int) int { return 250 },
		closed:       mix{opAdvance: 1000},
		open:         readProbe,

		recoveryPasses: 4,
	},
	// Per-request fixed cost, WAL append + fsync and compaction dominate;
	// the round is a few µs. Warm-up puts each job a few hundred rounds
	// short of its first compaction, so every job compacts early in the
	// open loop. The restart replays the WAL.
	{
		name:         "durable-small",
		jobs:         4,
		m:            20,
		k:            5,
		advRounds:    1,
		store:        storeWAL,
		retireRounds: 4096,
		warmRounds:   func(j int) int { return 4096 - 100*(j+1) },
		closed:       mix{opAdvance: 1000},
		open:         readProbe,

		recoveryPasses: 1,

		byHand: "every request waits on an fsync, and on a shared virtual disk " +
			"fsync latency moves its timings by 30-70% from one run to the next, " +
			"more than any bound allows",
	},
	// Routing, middleware, the registry, status/series building and
	// JSON encoding, beside snapshot writes, churn and live streams.
	{
		name:         "mixed-readmostly",
		jobs:         8,
		m:            20,
		k:            5,
		advRounds:    5,
		store:        storeFile,
		retireRounds: 200,
		warmRounds:   func(int) int { return 100 },
		closed:       readMostly,
		open:         readMostly,
		subscribers:  4,
		churnJobs:    8,

		recoveryPasses: 12,
	},
}

var readMostly = mix{
	opStatus: 300, opSeries: 150, opEstimates: 100, opList: 100, opStats: 50,
	opAdvance: 200, opSnapshot: 50, opCreate: 25, opDelete: 25,
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent, reproducible seed for one use of
// the run seed.
func subSeed(seed int64, parts ...string) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return int64(h.Sum64() >> 1)
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at   time.Duration // offset from the phase start
	op   opKind
	slot int // base-job slot (unused by list/stats/create/delete)
}

// schedule is a precomputed open-loop arrival sequence.
type schedule struct {
	arrivals []arrival
}

// opCounts splits n ops across a mix exactly (largest remainder), so
// every run of a given length sends the same number of each op.
func opCounts(m mix, n int) [numOps]int {
	total := 0
	for _, w := range m {
		total += w
	}
	var out [numOps]int
	type rem struct {
		op  int
		rem int
	}
	var rems []rem
	given := 0
	for op, w := range m {
		out[op] = n * w / total
		given += out[op]
		if w > 0 {
			rems = append(rems, rem{op, n * w % total})
		}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].rem > rems[b].rem })
	for i := 0; given < n; i++ {
		out[rems[i%len(rems)].op]++
		given++
	}
	return out
}

// buildSchedule draws the open-loop arrivals of a phase: n Poisson
// arrivals at the given rate, each op drawn from the workload's open
// mix with exact counts. Advances take the base jobs in turn; every
// other op targets a uniformly drawn one. The same seed gives the same
// schedule.
func buildSchedule(w *workload, seed int64, rate float64, dur time.Duration) *schedule {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	counts := opCounts(w.open, n)
	ops := make([]opKind, 0, n)
	for op, c := range counts {
		for i := 0; i < c; i++ {
			ops = append(ops, opKind(op))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	// Keep the churn pool (jobs a delete can take) between bounds, so
	// a delete never finds nothing to delete and creates never push
	// the broker past its job limit.
	pool := w.churnJobs
	for i, op := range ops {
		switch {
		case op == opDelete && pool < w.churnJobs:
			ops[i] = opCreate
		case op == opCreate && pool > w.churnJobs:
			ops[i] = opDelete
		}
		switch ops[i] {
		case opCreate:
			pool++
		case opDelete:
			pool--
		}
	}

	s := &schedule{arrivals: make([]arrival, n)}
	var t float64
	nAdv := 0
	for i, op := range ops {
		t += rng.ExpFloat64() / rate
		a := arrival{at: time.Duration(t * float64(time.Second)), op: op, slot: rng.Intn(w.jobs)}
		if op == opAdvance {
			// Advances go round-robin over the slots, so every job's
			// age at the end of the phase, and so its snapshot size,
			// live heap and recovery work, is the same for every seed.
			a.slot = nAdv % w.jobs
			nAdv++
		}
		s.arrivals[i] = a
	}
	return s
}

// retireAdvances is how many advances a slot's job takes before it
// retires, or 0 when the workload's jobs never retire.
func (w *workload) retireAdvances() int {
	if w.retireRounds <= 0 {
		return 0
	}
	return w.retireRounds / w.advRounds
}
