// Command perfbench is the broker benchmark: it drives the real
// server.Server handler in-process (requests built with httptest, no
// sockets) through one of three workloads, checks the broker's
// outputs against bare library sessions, and prints one JSON result
// line. See README.md for the workloads, the metrics and what is
// deliberately not measured.
//
//	perfbench --rates advance-heavy=400,... --workload advance-heavy \
//	          --seed 1 --seconds 15 --trace 0
//
// With --trace 1 the run replays the workload with the benchmark's own
// spans around every call into a layer and prints the per-layer
// ledger instead of the end-to-end metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// errInvalid marks a run whose generator did not offer the load it
// was asked to: it is reported, not scored.
var errInvalid = errors.New("invalid run")

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 15, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer ledger")
		rates   = flag.String("rates", "", "open-loop rate per workload, as name=req/s,...")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	rate, err := rateFor(*rates, w.name)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	out, err := run(runConfig{
		w:       w,
		seed:    *seed,
		rate:    rate,
		seconds: *seconds,
		traced:  *trace == 1,
	})
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	if errors.Is(err, errInvalid) {
		os.Exit(3)
	}
	os.Exit(2)
}

// rateFor picks one workload's open-loop rate out of the --rates list.
func rateFor(list, name string) (float64, error) {
	for _, kv := range strings.Split(list, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k != name {
			continue
		}
		r, err := strconv.ParseFloat(v, 64)
		if err != nil || r <= 0 {
			return 0, fmt.Errorf("bad rate %q for %s", v, name)
		}
		return r, nil
	}
	return 0, fmt.Errorf("no open-loop rate for %s in --rates", name)
}

// runConfig is one invocation.
type runConfig struct {
	w       *workload
	seed    int64
	rate    float64
	seconds float64
	traced  bool
}

func (c runConfig) span(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// Set-up and restart repetitions: each is reported as the median.
const (
	setups   = 21
	restarts = 15
)

// lagBound is the generator's own honesty bound: an open-loop phase
// whose dispatch lag p99 exceeds it did not offer the scheduled load,
// and the run is invalid.
const lagBound = 100.0 // ms

// clients is the closed-loop client count: one per CPU the process
// may use.
func clients() int { return runtime.GOMAXPROCS(0) }

// run executes one workload run and returns its result line.
func run(c runConfig) (*output, error) {
	if c.traced {
		return runTraced(c)
	}
	w := c.w
	openDur, closedDur := c.span(0.4), c.span(0.6)
	sched := buildSchedule(w, subSeed(c.seed, w.name, "open"), c.rate, openDur)

	b, setupS, err := setUpMany(c)
	if err != nil {
		return nil, err
	}
	defer b.tearDown()
	subs := subscribe(b, w.subscribers)

	open := runOpen(b, sched)
	heapMB := liveHeapMB()
	if lp := quantile(open.lag, 0.99); lp > lagBound {
		subs.stop()
		return nil, fmt.Errorf("%w: generator lag p99 %.2f ms exceeds %.0f ms", errInvalid, lp, lagBound)
	}

	rs, err := restart(b, restarts)
	if err != nil {
		subs.stop()
		return nil, err
	}
	closed := runClosed(b, subSeed(c.seed, w.name, "closed"), clients(), closedDur)
	subsN, subsFailed := subs.stop()
	final := gateJobs(b.h, b.liveSpecs(), nil)

	gate := rs.gate
	gate.add(final)
	out := &output{
		Attempted: open.attempted + closed.ok + closed.failed + closed.housekeeping + gate.checks + subsN,
		Failed:    open.failed + closed.failed + closed.hkFailed + len(gate.failures) + subsFailed,
		Metrics:   metricSet{},
	}
	out.Correct = len(gate.failures) == 0
	for _, f := range gate.failures {
		fmt.Fprintln(os.Stderr, "gate:", f)
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d set-ups; open loop %d req at %.0f/s, p50 over %d samples, lag p99 %.3f ms, failed %v; %d recovery samples; closed loop %d ok in %d slices with %d clients, %.0f req/s unscaled; %d sheds retried; %d gate checks; %d failed\n",
		w.name, c.seed, setups, open.attempted, c.rate, len(open.lat), quantile(open.lag, 0.99), open.failures, restarts,
		closed.ok, closed.slices, clients(), closed.rawOKRate, b.sheds.Load(), gate.checks, out.Failed)

	m := out.Metrics
	m.put("setup_s", median(setupS))
	m.put("throughput_rps", closed.okRate)
	m.put("rounds_per_s", closed.roundRate)
	if err := m.putTail("p50_ms", open.lat, 0.5); err != nil {
		return nil, err
	}
	m.put("ok_frac", 1-float64(out.Failed)/float64(out.Attempted))
	m.put("recovery_s", median(rs.recovery))
	m.put("live_heap_mb", heapMB)
	return out, m.check(endToEndNames)
}

// setUpMany builds the broker `setups` times, timing each at the
// reference speed (see gauge), and keeps the last one.
func setUpMany(c runConfig) (*broker, []float64, error) {
	var times []float64
	var b *broker
	g := newGauge(1)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.tearDown()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		var err error
		b, err = setUp(c.w, nil)
		if err != nil {
			return nil, nil, err
		}
		t := time.Since(start).Seconds()
		times = append(times, t/g.step().wall)
	}
	return b, times, nil
}

// liveSpecs returns the specs of every job the generator knows to be
// live.
func (b *broker) liveSpecs() map[string]jobSpec {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]jobSpec, len(b.specs))
	for id, s := range b.specs {
		out[id] = s
	}
	return out
}

// liveHeapMB is the heap in use after full collections. The second
// collection drops what sync.Pools kept through the first (pooled
// encoder buffers), which would otherwise vary from run to run.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
