package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cmabhs"
)

// fuzzSrc draws the values of a fuzzed round or status from the fuzz
// input: a seeded float (and its bit-neighbours), raw float bits, and
// small ordinary numbers, so edge floats land in every field.
type fuzzSrc struct {
	seed uint64
	data []byte
	i    int
}

func (g *fuzzSrc) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[g.i%len(g.data)]
	g.i++
	return b
}

func (g *fuzzSrc) float() float64 {
	switch g.byte() % 4 {
	case 0:
		return math.Float64frombits(g.seed)
	case 1:
		return math.Float64frombits(g.seed ^ uint64(g.byte()))
	case 2:
		var b [8]byte
		for i := range b {
			b[i] = g.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	default:
		return float64(int8(g.byte())) / 7
	}
}

func (g *fuzzSrc) floats() []float64 {
	n := int(g.byte() % 9)
	if n == 8 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.float()
	}
	return xs
}

func (g *fuzzSrc) round() cmabhs.Round {
	rd := cmabhs.Round{
		Round:          int(int16(uint16(g.byte())<<8 | uint16(g.byte()))),
		ConsumerPrice:  g.float(),
		PlatformPrice:  g.float(),
		SensingTimes:   g.floats(),
		TotalTime:      g.float(),
		ConsumerProfit: g.float(),
		PlatformProfit: g.float(),
		SellerProfits:  g.floats(),
		NoTrade:        g.byte()%2 == 0,
		Realized:       g.float(),
	}
	rd.AggregationRMSE = g.float()
	if n := int(g.byte() % 6); n < 5 {
		rd.Selected = make([]int, n)
		for i := range rd.Selected {
			rd.Selected[i] = int(int8(g.byte())) * 1000003
		}
	}
	return rd
}

// pick returns s or "" by the next input byte.
func (g *fuzzSrc) pick(s string) string {
	if g.byte()%2 == 0 {
		return ""
	}
	return s
}

func (g *fuzzSrc) status(s string) JobStatus {
	st := JobStatus{
		ID: s, Sellers: int(g.byte()), K: int(g.byte()), Rounds: int(g.byte()) << 20,
		NextRound: -int(g.byte()), Done: g.byte()%2 == 0, Stopped: g.pick(s),
		Metrics: JobMetrics{RoundsAdvanced: int64(g.seed), RoundsPerSec: g.float(), LastAdvanceSeconds: g.float()},
		Links:   JobLinks{Self: "/v1/jobs/" + s, Snapshot: g.pick(s), Metrics: "/metrics", Owner: g.pick(s)},
	}
	if g.byte()%3 == 0 {
		st.Lease = &JobLeaseStatus{Owner: s, Epoch: -int64(g.seed), ExpiresInSeconds: g.float()}
	}
	if g.byte()%5 == 0 {
		return st // result null
	}
	st.Result = &cmabhs.Result{
		Policy: s, RealizedRevenue: g.float(), ExpectedRevenue: g.float(), Regret: g.float(),
		RegretBound: g.float(), ConsumerProfit: g.float(), PlatformProfit: g.float(),
		SellerProfit: g.float(), Rounds: int(g.byte()), ConsumerSpend: g.float(),
		AggregationRMSE: g.float(), DynamicRegret: g.float(), Stopped: g.pick(s),
		Estimates: g.floats(), PerSellerProfit: g.floats(),
	}
	if n := int(g.byte() % 4); n < 3 {
		st.Result.PerRound = make([]cmabhs.Round, n)
		for i := range st.Result.PerRound {
			st.Result.PerRound[i] = g.round()
		}
	}
	if n := int(g.byte() % 4); n < 3 {
		st.Result.Checkpoints = make([]cmabhs.Checkpoint, n)
		for i := range st.Result.Checkpoints {
			st.Result.Checkpoints[i] = cmabhs.Checkpoint{
				Round: int(g.byte()), RealizedRevenue: g.float(), ExpectedRevenue: g.float(),
				Regret: g.float(), ConsumerProfit: g.float(), PlatformProfit: g.float(),
				SellerProfit: g.float(),
			}
		}
	}
	return st
}

// sameAsMarshal fails t unless the appended bytes (and error) are what
// json.Marshal(v) returns: equal bytes, or an error with the same text.
func sameAsMarshal(t *testing.T, what string, got []byte, gotErr error, v any, suffix string) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: appender error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: appender error %q, encoding/json error %q", what, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, append(want, suffix...)) {
		t.Fatalf("%s:\n got: %s\nwant: %s%s", what, got, want, suffix)
	}
}

// FuzzStatusBody holds the hand-written appenders to encoding/json:
// for arbitrary rounds, statuses and advance bodies they write
// json.Marshal's bytes, or fail with its error. The status is also
// encoded repeatedly through one per-seller text cache, the last time
// after its per-seller vectors were mutated: that encode must be a
// fresh encode's bytes, never an earlier one's text.
func FuzzStatusBody(f *testing.F) {
	inf := math.Inf(1)
	for _, x := range []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), -math.Nextafter(1e-6, 0),
		1e-7, -1.5e-10, 1e-100, math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, inf),
		-1e21, 1e100, math.MaxFloat64, -math.MaxFloat64, 123.456, 1.0000000000000002,
		math.NaN(), inf, -inf,
	} {
		f.Add(math.Float64bits(x), "job-1", []byte{0, 4, 8, 12, 1, 5, 0, 0, 2, 3})
	}
	for _, s := range []string{
		"", "<>&", `"`, `\`, "a\x00b\x1f\n\t\r\b\f", "\xff\xfe", "\xe2\x80", "\u2028\u2029",
		"é", "\x7f", "job-\U0001F600",
	} {
		f.Add(math.Float64bits(0.25), s, []byte{3, 7, 1, 1, 9, 0, 3, 5, 5, 2, 6, 1})
	}
	f.Fuzz(func(t *testing.T, seed uint64, s string, data []byte) {
		g := &fuzzSrc{seed: seed, data: data}
		rd := g.round()
		got, err := appendRound(nil, &rd)
		sameAsMarshal(t, "round", got, err, &rd, "")

		st := g.status(s)
		got, err = appendStatus(nil, &st, new(sellerText))
		sameAsMarshal(t, "status", got, err, &st, "")

		var played []cmabhs.Round
		for n := int(g.byte() % 3); n > 0; n-- {
			played = append(played, g.round())
		}
		stopped := g.pick(s)
		got, err = AdvanceBodyEncoder()(nil, played, stopped, &st)
		sameAsMarshal(t, "advance body", got, err, AdvanceResponse{Played: played, Stopped: stopped, Status: st}, "\n")

		// Encode again through one cache, warm this time, then mutate
		// the per-seller vectors and encode a third time.
		var c sellerText
		got, err = appendStatus(nil, &st, &c)
		sameAsMarshal(t, "cached status", got, err, &st, "")
		got, err = appendStatus(nil, &st, &c)
		sameAsMarshal(t, "cached status, warm", got, err, &st, "")
		if st.Result == nil {
			return
		}
		for _, v := range [][]float64{st.Result.Estimates, st.Result.PerSellerProfit} {
			for i := range v {
				switch g.byte() % 3 {
				case 0:
					v[i] = g.float()
				case 1: // a neighbour: new bits, often the same text length
					v[i] = math.Float64frombits(math.Float64bits(v[i]) ^ (1 + uint64(g.byte())))
				}
			}
		}
		if g.byte()%4 == 0 {
			st.Result.Estimates = append(st.Result.Estimates, g.float())
		}
		got, err = appendStatus(nil, &st, &c)
		sameAsMarshal(t, "cached status after mutation", got, err, &st, "")
	})
}

// TestStatusCacheNeverStale drives real jobs through the handler and
// checks every advance, get and list body against json.Marshal of the
// job's true status at that moment, plus a newline: an m300/k10 job in
// the advance workload's age band (rounds 250 on), a job whose sellers
// churn out, and a job re-created from a snapshot. A stale per-seller
// text would show as a body that decodes fine but disagrees with the
// job.
func TestStatusCacheNeverStale(t *testing.T) {
	s := New()
	h := s.Handler()
	do := func(method, path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code/100 != 2 {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	create := func(req JobRequest) string {
		t.Helper()
		b, _ := json.Marshal(req)
		var st JobStatus
		if err := json.Unmarshal(do(http.MethodPost, "/v1/jobs", string(b)), &st); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	truth := func(id string) JobStatus {
		t.Helper()
		j, ok := s.registry().get(id)
		if !ok {
			t.Fatalf("job %s gone", id)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return s.statusLocked(j)
	}
	marshal := func(v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	// advance plays rounds on id and checks the advance, get and list
	// bodies; it returns the job's status after the advance.
	advance := func(id string, rounds int) JobStatus {
		t.Helper()
		got := do(http.MethodPost, "/v1/jobs/"+id+"/advance", `{"rounds":`+jsonInt(rounds)+`}`)
		var resp AdvanceResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatal(err)
		}
		st := truth(id)
		if want := marshal(AdvanceResponse{Played: resp.Played, Stopped: resp.Stopped, Status: st}); !bytes.Equal(got, want) {
			t.Fatalf("advance %s to round %d:\n got: %s\nwant: %s", id, st.NextRound, got, want)
		}
		if got, want := do(http.MethodGet, "/v1/jobs/"+id, ""), marshal(st); !bytes.Equal(got, want) {
			t.Fatalf("get %s at round %d:\n got: %s\nwant: %s", id, st.NextRound, got, want)
		}
		ids := s.registry().ids()
		sort.Strings(ids)
		all := make([]JobStatus, len(ids))
		for i, id := range ids {
			all[i] = truth(id)
		}
		if got, want := do(http.MethodGet, "/v1/jobs", ""), marshal(all); !bytes.Equal(got, want) {
			t.Fatalf("list after advancing %s:\n got: %s\nwant: %s", id, got, want)
		}
		return st
	}
	// changed counts the entries of a that differ from b.
	changed := func(a, b []float64) int {
		n := 0
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				n++
			}
		}
		return n
	}

	big := create(JobRequest{RandomSellers: 300, K: 10, Rounds: 1 << 20, Seed: 3})
	prev := advance(big, 249)
	hits, misses := 0, 0
	for i := 0; i < 8; i++ {
		st := advance(big, 25)
		n := changed(st.Result.Estimates, prev.Result.Estimates)
		hits += len(st.Result.Estimates) - n
		misses += n
		prev = st
	}
	if prev.NextRound < 250+8*25 || hits == 0 || misses == 0 {
		t.Fatalf("m300 job at round %d: %d unchanged and %d changed estimates; want both", prev.NextRound, hits, misses)
	}

	churn := JobRequest{RandomSellers: 30, K: 5, Rounds: 1 << 20, Seed: 5}
	churn.Faults = &FaultRequest{Seed: 9}
	churn.Faults.Churn.Rate = 0.002
	churn.Faults.Churn.MinRound = 5
	cj := create(churn)
	for i := 0; i < 12; i++ {
		advance(cj, 25)
	}
	// Count the departed sellers on a twin session: its observer marks
	// them NaN in the round's Eq. 19 snapshot.
	j, _ := s.registry().get(cj)
	j.mu.Lock()
	cfg, played := j.sess.Config(), j.sess.NextRound()-1
	j.mu.Unlock()
	twin, err := cmabhs.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	departed := 0
	twin.Observe(func(ev *cmabhs.RoundEvent) {
		departed = 0
		for _, u := range ev.UCB {
			if math.IsNaN(u) {
				departed++
			}
		}
	})
	if _, err := twin.AdvanceContext(context.Background(), played); err != nil {
		t.Fatal(err)
	}
	if departed == 0 || departed == churn.RandomSellers {
		t.Fatalf("%d of %d sellers departed by round %d; want some", departed, churn.RandomSellers, played)
	}

	var snap SnapshotResponse
	if err := json.Unmarshal(do(http.MethodPost, "/v1/jobs/"+big+"/snapshot", ""), &snap); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(JobRequest{Snapshot: snap.Snapshot})
	var re JobStatus
	if err := json.Unmarshal(do(http.MethodPost, "/v1/jobs", string(b)), &re); err != nil {
		t.Fatal(err)
	}
	if got, want := do(http.MethodGet, "/v1/jobs/"+re.ID, ""), marshal(truth(re.ID)); !bytes.Equal(got, want) {
		t.Fatalf("re-created job:\n got: %s\nwant: %s", got, want)
	}
	for i := 0; i < 4; i++ {
		advance(re.ID, 25)
		advance(big, 25)
	}
}

// TestStatusCacheConcurrent: advances, gets and lists of one job from
// several goroutines at once all go through the job's text cache,
// under its lock. Under -race this shows the cache is never touched
// outside it; every body must still decode, and the final get must be
// the job's true status.
func TestStatusCacheConcurrent(t *testing.T) {
	s := New()
	h := s.Handler()
	b, _ := json.Marshal(JobRequest{RandomSellers: 40, K: 5, Rounds: 1 << 20, Seed: 2})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(b)))
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	reqs := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs/" + st.ID + "/advance", `{"rounds":7}`},
		{http.MethodGet, "/v1/jobs/" + st.ID, ""},
		{http.MethodGet, "/v1/jobs", ""},
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(r struct{ method, path, body string }) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
				if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
					t.Errorf("%s %s: status %d: %s", r.method, r.path, rec.Code, rec.Body)
					return
				}
			}
		}(reqs[g%len(reqs)])
	}
	wg.Wait()
	j, _ := s.registry().get(st.ID)
	j.mu.Lock()
	want, err := json.Marshal(s.statusLocked(j))
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil))
	if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("final get:\n got: %s\nwant: %s", got, want)
	}
}

// floatCases are the edge inputs appendFloat is held to json.Marshal
// on: every power of two from 2^-1074 to 2^1023 and every power of ten
// from 1e-324 to 1e308, each with its neighbours one ulp away; the
// subnormals with significands below 2^12; the integers around 2^53;
// the format thresholds 1e-6 and 1e21 with their neighbours; and ±0,
// ±MaxFloat64. A neighbour past MaxFloat64 is +Inf, which the caller
// skips.
func floatCases() []float64 {
	var xs []float64
	near := func(x float64) {
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		near(math.Ldexp(1, e))
	}
	for e := -324; e <= 308; e++ {
		x, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64) // 1e-324 rounds to 0
		near(x)
	}
	for m := uint64(1); m < 1<<12; m++ {
		xs = append(xs, math.Float64frombits(m))
	}
	for i := int64(-300); i <= 300; i++ {
		xs = append(xs, float64(1<<53+i))
	}
	near(1e-6)
	near(1e21)
	return append(xs, 0, math.MaxFloat64)
}

// sameAsMarshalFloat fails t unless appendFloat writes json.Marshal's
// bytes for x and for -x. Values json.Marshal refuses (NaN, ±Inf) are
// skipped: appendFloat is only called on finite values.
func sameAsMarshalFloat(t *testing.T, x float64) {
	t.Helper()
	for _, v := range []float64{x, -x} {
		want, err := json.Marshal(v)
		if err != nil {
			continue
		}
		if got := appendFloat([]byte("prefix"), v); string(got) != "prefix"+string(want) {
			t.Fatalf("appendFloat(%#016x) = %s, json.Marshal = %s", math.Float64bits(v), got[len("prefix"):], want)
		}
	}
}

// TestAppendFloatMatchesMarshal holds the float kernel to
// json.Marshal(float64) on the edge cases and on fixed-seed random
// inputs: 10^6 raw bit patterns (mostly 'e' form) and 2·10^5 values
// between 2^-20 and 2^70 (the 'f' form the broker's floats take). A
// -race build, where json.Marshal is ~8× slower and the kernel shares
// no memory, checks a tenth of the random inputs.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	t.Parallel()
	for _, x := range floatCases() {
		sameAsMarshalFloat(t, x)
	}
	n := 1_000_000
	if raceEnabled {
		n /= 10
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		sameAsMarshalFloat(t, math.Float64frombits(r.Uint64()))
	}
	for i := 0; i < n/5; i++ {
		sameAsMarshalFloat(t, math.Ldexp(1+r.Float64(), r.Intn(91)-20))
	}
}

// FuzzAppendFloat: for any float64 bits, appendFloat writes
// json.Marshal's bytes.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{0, 5e-324, 0x1p-1022, 1e-7, 1e-6, 0.1, 1.0000000000000002, 123.456, 1 << 53, 1e21, 1e23, math.MaxFloat64} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		sameAsMarshalFloat(t, math.Float64frombits(bits))
	})
}

// TestFloorLogs holds the kernel's three floor-log approximations to
// exact math/big floors for every |e| ≤ 4096, which covers every
// argument the kernel and its table pass them (q in [-1074, 971], -k
// in [-292, 324]).
func TestFloorLogs(t *testing.T) {
	t.Parallel()
	const n = 4096
	pow10 := make([]*big.Int, n+2)
	pow10[0] = big.NewInt(1)
	for i := 1; i < len(pow10); i++ {
		pow10[i] = new(big.Int).Mul(pow10[i-1], big.NewInt(10))
	}
	// cmp compares m · 2^a with 10^b, exactly.
	cmp := func(m int64, a, b int) int {
		l, r := big.NewInt(m), big.NewInt(1)
		if a >= 0 {
			l.Lsh(l, uint(a))
		} else {
			r.Lsh(r, uint(-a))
		}
		if b >= 0 {
			r.Mul(r, pow10[b])
		} else {
			l.Mul(l, pow10[-b])
		}
		return l.Cmp(r)
	}
	for e := -n; e <= n; e++ {
		// 10^k ≤ 2^e < 10^(k+1)
		if k := flog10pow2(e); cmp(1, e, k) < 0 || cmp(1, e, k+1) >= 0 {
			t.Fatalf("flog10pow2(%d) = %d, not floor(log10(2^%d))", e, k, e)
		}
		// 10^k ≤ 3 · 2^(e-2) < 10^(k+1)
		if k := flog10threeQuartersPow2(e); cmp(3, e-2, k) < 0 || cmp(3, e-2, k+1) >= 0 {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d, not floor(log10(3/4 · 2^%d))", e, k, e)
		}
		// 2^k ≤ 10^e < 2^(k+1)
		if k := flog2pow10(e); cmp(1, k, e) > 0 || cmp(1, k+1, e) <= 0 {
			t.Fatalf("flog2pow10(%d) = %d, not floor(log2(10^%d))", e, k, e)
		}
	}
}

var floatSink []byte

// BenchmarkAppendFloat times the float kernel against strconv's
// shortest 'f' form, the call it replaced, on 1024 values of the
// broker's kind: 16–17 significant digits, magnitudes 2^-6 to 2^6.
func BenchmarkAppendFloat(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = math.Ldexp(1+r.Float64(), r.Intn(12)-6)
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"kernel", appendFloat},
		{"strconv", func(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'f', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], xs[i%len(xs)])
			}
			floatSink = buf
		})
	}
}
