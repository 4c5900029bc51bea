package ledger

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTransferBasics(t *testing.T) {
	l := New()
	if err := l.Transfer(1, Consumer, Platform, 10); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Consumer) != -10 || l.Balance(Platform) != 10 {
		t.Errorf("balances %v / %v", l.Balance(Consumer), l.Balance(Platform))
	}
	if err := l.Transfer(1, Platform, Seller(0), 4); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Platform) != 6 || l.Balance(Seller(0)) != 4 {
		t.Errorf("balances %v / %v", l.Balance(Platform), l.Balance(Seller(0)))
	}
	if n := l.State().Transfers; n != 2 {
		t.Errorf("transfer count %d", n)
	}
}

func TestTransferRejectsBadAmounts(t *testing.T) {
	l := New()
	for _, amt := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := l.Transfer(1, Consumer, Platform, amt); err == nil {
			t.Errorf("amount %v should be rejected", amt)
		}
	}
	// A rejected transfer must not touch balances or the digest.
	if !reflect.DeepEqual(l.State(), New().State()) {
		t.Error("rejected transfer had side effects")
	}
}

// TestZeroTransferJournaled: a zero transfer (a no-trade round) is
// booked — it counts and it moves the digest.
func TestZeroTransferJournaled(t *testing.T) {
	l := New()
	if err := l.Transfer(3, Consumer, Platform, 0); err != nil {
		t.Fatal(err)
	}
	st := l.State()
	if st.Transfers != 1 {
		t.Errorf("zero transfer not counted: %d", st.Transfers)
	}
	if reflect.DeepEqual(st.Digest, New().State().Digest) {
		t.Error("zero transfer left the digest unchanged")
	}
}

// TestConservationProperty: any sequence of valid transfers keeps the
// total imbalance at (numerical) zero.
func TestConservationProperty(t *testing.T) {
	f := func(ops []struct {
		From, To uint8
		Amt      float64
	}) bool {
		l := New()
		accounts := []Account{Consumer, Platform, Seller(0), Seller(1), Seller(2)}
		for i, op := range ops {
			amt := math.Abs(op.Amt)
			if math.IsNaN(amt) || math.IsInf(amt, 0) || amt > 1e12 {
				continue
			}
			from := accounts[int(op.From)%len(accounts)]
			to := accounts[int(op.To)%len(accounts)]
			if err := l.Transfer(i, from, to, amt); err != nil {
				return false
			}
		}
		return math.Abs(l.TotalImbalance()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSettleRound: one settlement books the consumer's reward to the
// platform and the platform's payments to the sellers, and leaves the
// same state — digest included — as booking those transfers singly in
// ascending seller order.
func TestSettleRound(t *testing.T) {
	l := New()
	if err := l.SettleRoundSorted(5, 100, []int{2, 7}, []float64{30, 20}); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Consumer) != -100 {
		t.Errorf("consumer %v", l.Balance(Consumer))
	}
	if l.Balance(Platform) != 50 { // the commission
		t.Errorf("platform %v", l.Balance(Platform))
	}
	if l.Balance(Seller(2)) != 30 || l.Balance(Seller(7)) != 20 {
		t.Error("seller balances wrong")
	}
	if imbalance := l.TotalImbalance(); math.Abs(imbalance) > 1e-12 {
		t.Errorf("imbalance %v", imbalance)
	}
	single := New()
	for _, tr := range []struct {
		to  Account
		amt float64
		src Account
	}{{Platform, 100, Consumer}, {Seller(2), 30, Platform}, {Seller(7), 20, Platform}} {
		if err := single.Transfer(5, tr.src, tr.to, tr.amt); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := l.State(), single.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("settled state %+v, booked singly %+v", got, want)
	}
	// Order is part of the history: seller 7 paid before seller 2 is a
	// different digest.
	swapped := New()
	_ = swapped.Transfer(5, Consumer, Platform, 100)
	_ = swapped.Transfer(5, Platform, Seller(7), 20)
	_ = swapped.Transfer(5, Platform, Seller(2), 30)
	if reflect.DeepEqual(swapped.State().Digest, l.State().Digest) {
		t.Error("digest ignores booking order")
	}
}

func TestSettleRoundPropagatesErrors(t *testing.T) {
	l := New()
	if err := l.SettleRoundSorted(1, -5, nil, nil); err == nil {
		t.Error("negative reward should fail")
	}
	if err := l.SettleRoundSorted(1, 5, []int{0}, []float64{math.NaN()}); err == nil {
		t.Error("NaN seller payment should fail")
	}
}

func TestSellerAccountNames(t *testing.T) {
	if Seller(0) != "seller-0" || Seller(42) != "seller-42" {
		t.Error("unexpected seller account format")
	}
}

// TestZeroValueLedger: the zero Ledger is ready to use — every
// operation works without New, and reads of an empty ledger are empty.
func TestZeroValueLedger(t *testing.T) {
	var l Ledger
	if l.Balance(Consumer) != 0 || l.TotalImbalance() != 0 || l.State().Transfers != 0 {
		t.Fatal("empty zero-value ledger reports state")
	}
	var empty Ledger
	if err := empty.Restore(l.State()); err != nil {
		t.Fatalf("empty state refused: %v", err)
	}
	if err := l.Transfer(1, Consumer, Platform, 2); err != nil {
		t.Fatal(err)
	}
	var settled Ledger
	if err := settled.SettleRoundSorted(1, 5, []int{0, 3}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Platform) != 2 || settled.Balance(Seller(3)) != 2 || settled.Balance(Platform) != 2 {
		t.Fatalf("balances %v / %v", l.Balance(Platform), settled.Balance(Seller(3)))
	}
	var restored Ledger
	if err := restored.Restore(settled.State()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.State(), settled.State()) {
		t.Fatal("zero-value Restore diverged")
	}
}

// TestRejectedOpsLeaveLedgerUntouched: a rejected Transfer or
// settlement changes nothing observable — no count, no digest, no
// balance, and no newly touched account, even when the rejected call
// names accounts the ledger has never seen.
func TestRejectedOpsLeaveLedgerUntouched(t *testing.T) {
	l := New()
	if err := l.Transfer(1, Consumer, Platform, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.SettleRoundSorted(1, 4, []int{1, 2}, []float64{1, 0.5}); err != nil {
		t.Fatal(err)
	}
	before := l.State()
	rejected := map[string]func() error{
		"negative transfer": func() error { return l.Transfer(2, "stranger", "other", -1) },
		"NaN transfer":      func() error { return l.Transfer(2, "stranger", Platform, math.NaN()) },
		"Inf transfer":      func() error { return l.Transfer(2, Consumer, "other", math.Inf(1)) },
		"negative reward":   func() error { return l.SettleRoundSorted(2, -1, []int{7}, []float64{1}) },
		"NaN reward":        func() error { return l.SettleRoundSorted(2, math.NaN(), []int{7}, []float64{1}) },
		"NaN payment":       func() error { return l.SettleRoundSorted(2, 1, []int{7, 9}, []float64{1, math.NaN()}) },
		"negative payment":  func() error { return l.SettleRoundSorted(2, 1, []int{7}, []float64{-0.5}) },
		"unsorted ids":      func() error { return l.SettleRoundSorted(2, 1, []int{9, 7}, []float64{1, 1}) },
		"duplicate ids":     func() error { return l.SettleRoundSorted(2, 1, []int{7, 7}, []float64{1, 1}) },
		"length mismatch":   func() error { return l.SettleRoundSorted(2, 1, []int{7, 9}, []float64{1}) },
	}
	for name, op := range rejected {
		if err := op(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if got := l.State(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: state %+v, want %+v", name, got, before)
		}
	}
}

// settledLedger books n rounds of a small market.
func settledLedger(t testing.TB, n int) *Ledger {
	t.Helper()
	l := New()
	for r := 1; r <= n; r++ {
		if err := l.SettleRoundSorted(r, 7.5+float64(r%3), []int{0, 2, 5}, []float64{1.25, 0.5 * float64(r%4), 2}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestStateRoundTrip: a restored ledger holds the same state and keeps
// booking exactly as the original does.
func TestStateRoundTrip(t *testing.T) {
	orig := settledLedger(t, 20)
	var restored Ledger
	if err := restored.Restore(orig.State()); err != nil {
		t.Fatal(err)
	}
	for _, l := range []*Ledger{orig, &restored} {
		if err := l.SettleRoundSorted(21, 3, []int{1, 2}, []float64{0.25, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(restored.State(), orig.State()) {
		t.Fatal("restored ledger diverged from the original")
	}
}

// TestRestoreRefusals: every state Restore refuses is refused with
// ErrBadState, and the ledger keeps what it had.
func TestRestoreRefusals(t *testing.T) {
	good := settledLedger(t, 10).State()
	clone := func() State {
		st := good
		st.Accounts = append([]Account(nil), good.Accounts...)
		st.Balances = append([]float64(nil), good.Balances...)
		st.Digest = append([]byte(nil), good.Digest...)
		return st
	}
	cases := map[string]func(*State){
		"NaN balance":          func(s *State) { s.Balances[1] = math.NaN() },
		"infinite balance":     func(s *State) { s.Balances[0] = math.Inf(-1) },
		"missing balance":      func(s *State) { s.Balances = s.Balances[:len(s.Balances)-1] },
		"extra balance":        func(s *State) { s.Balances = append(s.Balances, 0) },
		"duplicate account":    func(s *State) { s.Accounts[2] = s.Accounts[3] },
		"nil digest":           func(s *State) { s.Digest = nil },
		"truncated digest":     func(s *State) { s.Digest = s.Digest[:len(s.Digest)-1] },
		"foreign digest":       func(s *State) { s.Digest[0] ^= 0xff },
		"digest count skew":    func(s *State) { s.Transfers++ },
		"negative count":       func(s *State) { s.Transfers = -1 },
		"overflowing count":    func(s *State) { s.Transfers = math.MaxInt64 },
		"accounts, no history": func(s *State) { *s = New().State(); s.Accounts, s.Balances = []Account{Consumer}, []float64{0} },
		"overflowing balances": func(s *State) { copy(s.Balances, []float64{1.7e308, 1.7e308, -1.7e308, -1.7e308}) },
		"money created":        func(s *State) { s.Balances[0] += 1e-9 },
		"money moved unevenly": func(s *State) { s.Balances[1] *= 1 + 1e-12 },
	}
	for name, corrupt := range cases {
		st := clone()
		corrupt(&st)
		l := settledLedger(t, 3)
		before := l.State()
		err := l.Restore(st)
		if !errors.Is(err, ErrBadState) {
			t.Errorf("%s: got %v, want ErrBadState", name, err)
		}
		if !reflect.DeepEqual(l.State(), before) {
			t.Errorf("%s: refused Restore changed the ledger", name)
		}
	}
	if err := new(Ledger).Restore(clone()); err != nil {
		t.Fatalf("uncorrupted state refused: %v", err)
	}
}

// TestImbalanceBoundHoldsOverLongRuns: at the paper's horizon the
// rounding residual of a real settlement stream is nonzero and grows,
// and the bound stays above it.
func TestImbalanceBoundHoldsOverLongRuns(t *testing.T) {
	l := New()
	ids := []int{0, 3, 4, 8, 9}
	pay := make([]float64, len(ids))
	worst := 0.0
	for r := 1; r <= 50000; r++ {
		total := 0.0
		for j := range pay {
			pay[j] = 0.1 + float64((r*7+j*13)%97)/31
			total += pay[j]
		}
		if err := l.SettleRoundSorted(r, total*1.37, ids, pay); err != nil {
			t.Fatal(err)
		}
		if imb := math.Abs(l.TotalImbalance()); imb > l.ImbalanceBound() {
			t.Fatalf("round %d: residual %g over bound %g", r, imb, l.ImbalanceBound())
		} else if imb > worst {
			worst = imb
		}
	}
	if worst == 0 {
		t.Fatal("no rounding residual: the bound was never exercised")
	}
	if err := new(Ledger).Restore(l.State()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSettleRoundSorted books one K=10 settlement per op: the
// balance updates plus the canonical records hashed into the digest.
func BenchmarkSettleRoundSorted(b *testing.B) {
	const k = 10
	ids := make([]int, k)
	pay := make([]float64, k)
	for j := range ids {
		ids[j] = 7*j + 3
		pay[j] = 0.25 * float64(j+1)
	}
	l := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.SettleRoundSorted(i+1, 10, ids, pay); err != nil {
			b.Fatal(err)
		}
	}
}
