package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := buildSchedule(w, 7, 500, 3*time.Second)
		b := buildSchedule(w, 7, 500, 3*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different schedules", w.name)
		}
		c := buildSchedule(w, 8, 500, 3*time.Second)
		if reflect.DeepEqual(a.arrivals, c.arrivals) {
			t.Fatalf("%s: different seeds gave the same schedule", w.name)
		}
		for i := 1; i < len(a.arrivals); i++ {
			if a.arrivals[i].at < a.arrivals[i-1].at {
				t.Fatalf("%s: arrivals out of order at %d", w.name, i)
			}
		}
	}
}

func TestScheduleExactMix(t *testing.T) {
	w, _ := workloadByName("advance-heavy")
	s := buildSchedule(w, 3, 1000, 4*time.Second)
	if len(s.arrivals) != 4000 {
		t.Fatalf("got %d arrivals, want 4000", len(s.arrivals))
	}
	if got := s.count(opStatus); got != 1000 {
		t.Fatalf("got %d status reads, want exactly 1000", got)
	}
	// Advances alternate over the slots, whatever the seed.
	perSlot := make([]int, w.jobs)
	for _, a := range s.arrivals {
		if a.op == opAdvance {
			perSlot[a.slot]++
		}
	}
	if perSlot[0] != perSlot[1] {
		t.Fatalf("advances per slot %v, want equal", perSlot)
	}
}

func TestOpCounts(t *testing.T) {
	got := opCounts(readMostly, 1000)
	want := [numOps]int{opStatus: 300, opSeries: 150, opEstimates: 100, opList: 100, opStats: 50,
		opAdvance: 200, opSnapshot: 50, opCreate: 25, opDelete: 25}
	if got != want {
		t.Fatalf("opCounts = %v, want %v", got, want)
	}
	sum := 0
	for _, n := range opCounts(readMostly, 7) {
		sum += n
	}
	if sum != 7 {
		t.Fatalf("opCounts over 7 ops sums to %d", sum)
	}
}

// TestRetirement checks the one retirement path every loop uses: the
// advance that ends a job's share swaps a fresh job into its slot,
// deletes the old one, and is counted as housekeeping.
func TestRetirement(t *testing.T) {
	w := *workloads[0]
	w.m, w.k, w.advRounds, w.retireRounds = 5, 2, 1, 3
	w.warmRounds = func(int) int { return 0 }
	b, err := setUp(&w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.tearDown()
	old := b.liveSlotJobs()[0]
	for i := 1; i <= 3; i++ {
		r := b.do(opAdvance, 0)
		if !r.ok || r.adv != int64(i) {
			t.Fatalf("advance %d: ok=%v, dispatch count %d", i, r.ok, r.adv)
		}
		made, failed := b.retireIfDue(0, r.adv)
		if want := map[bool]int{true: 2, false: 0}[i == 3]; made != want || failed != 0 {
			t.Fatalf("advance %d: retirement made %d requests (%d failed), want %d", i, made, failed, want)
		}
	}
	now := b.liveSlotJobs()[0]
	if now == old {
		t.Fatal("the slot still holds its retired job")
	}
	if code := b.serve(http.MethodGet, "/v1/jobs/"+old, "", false).code; code != http.StatusNotFound {
		t.Fatalf("retired job answers %d, want 404", code)
	}
	if _, ok := b.liveSpecs()[old]; ok {
		t.Fatal("retired job is still gated")
	}
	if n, err := nextRound(b.h, now); err != nil || n != 1 {
		t.Fatalf("fresh job at round %d (%v), want 1", n, err)
	}

	// Overlapping advances still give each job exactly its share: ten
	// at once on slot 1 leave its fourth job one round in.
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.retireIfDue(1, b.do(opAdvance, 1).adv)
		}()
	}
	wg.Wait()
	if n, err := nextRound(b.h, b.liveSlotJobs()[1]); err != nil || n != 2 {
		t.Fatalf("after 10 overlapping advances the live job is at round %d (%v), want 2", n, err)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("quantile modified its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !tailSupported(1000, 0.99) || tailSupported(999, 0.99) {
		t.Error("a p99 needs exactly 1000 samples to have 10 beyond it")
	}
	if !tailSupported(20, 0.5) {
		t.Error("a median of 20 samples is supported")
	}
}

// TestGauge checks the reference measures a positive speed both ways
// and that a step's slowdown is the nominal speed over the mean of the
// measurements on its two sides.
func TestGauge(t *testing.T) {
	g := newGauge(2)
	before := g.last
	f := g.step()
	after := g.last
	for _, c := range []struct {
		name      string
		got, b, a float64
	}{{"wall", f.wall, before.wall, after.wall}, {"cpu", f.cpu, before.cpu, after.cpu}} {
		if c.b <= 0 || c.a <= 0 {
			t.Fatalf("%s speed %v, %v: want positive", c.name, c.b, c.a)
		}
		if want := refNominal / ((c.b + c.a) / 2); math.Abs(c.got-want) > 1e-9*want {
			t.Errorf("%s slowdown %v, want %v", c.name, c.got, want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, list := range [][]string{endToEndNames, perLayerNames} {
		for _, n := range list {
			if !valid.MatchString(n) || len(n) > 64 {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", n)
			}
			if seen[n] {
				t.Errorf("metric name %q used twice", n)
			}
			seen[n] = true
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-tests read.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	listed := map[string]bool{}
	for _, w := range bf.Workloads {
		listed[w.Name] = true
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, w := range workloads {
		if listed[w.name] == (w.byHand != "") {
			t.Errorf("%s: listed in BENCHMARK.json %v, but by-hand reason %q", w.name, listed[w.name], w.byHand)
		}
	}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Unit != metricUnits[m.Name] {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q emitted", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
		if m.Unit != metricUnits[m.Name] {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q emitted", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
	if !sameSet(e2e, endToEndNames) {
		t.Errorf("end_to_end names %v, benchmark emits %v", e2e, endToEndNames)
	}
	if !sameSet(layer, perLayerNames) {
		t.Errorf("per_layer names %v, benchmark emits %v", layer, perLayerNames)
	}
	for _, w := range workloads {
		found := false
		for _, arg := range bf.Command {
			if _, err := rateFor(arg, w.name); err == nil {
				found = true
			}
		}
		if !found {
			t.Errorf("command carries no open-loop rate for %s", w.name)
		}
	}
}

// TestRunsEmitEveryMetric runs every workload, untraced and traced, at
// a small scale — five-seller jobs at a high open-loop rate, so a
// short phase still gives every percentile its ten samples beyond it —
// and checks each run passes its gate and emits exactly the metrics
// BENCHMARK.json names.
func TestRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the broker")
	}
	if raceEnabled {
		t.Skip("a -race build cannot offer the small runs' load")
	}
	bf := readBenchmarkFile(t)
	// Runs keep their state under .bench_build/ in the repository root,
	// as they do when run.sh starts them there.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("perfbench")
	want := map[bool][]string{}
	for _, m := range bf.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bf.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, w := range workloads {
		small := *w
		small.m, small.k = 5, 2
		for _, traced := range []bool{false, true} {
			out, err := run(runConfig{w: &small, seed: 1, rate: 3000, seconds: 4, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w.name, traced, out.Correct, out.Attempted)
			}
			var got []string
			for name, m := range out.Metrics {
				got = append(got, name)
				if m.Unit != metricUnits[name] {
					t.Errorf("%s: %s emitted in %q, declared %q", w.name, name, m.Unit, metricUnits[name])
				}
			}
			if !sameSet(got, want[traced]) {
				t.Errorf("%s traced=%v: emitted %v, BENCHMARK.json names %v", w.name, traced, got, want[traced])
			}
		}
	}
}

func sameSet(a, b []string) bool {
	x := append([]string(nil), a...)
	y := append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	return reflect.DeepEqual(x, y)
}
