package ledger

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTransferBasics(t *testing.T) {
	l := New()
	if err := l.Transfer(1, Consumer, Platform, 10, "reward"); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Consumer) != -10 || l.Balance(Platform) != 10 {
		t.Errorf("balances %v / %v", l.Balance(Consumer), l.Balance(Platform))
	}
	if err := l.Transfer(1, Platform, Seller(0), 4, "pay"); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Platform) != 6 || l.Balance(Seller(0)) != 4 {
		t.Errorf("balances %v / %v", l.Balance(Platform), l.Balance(Seller(0)))
	}
	if len(l.Entries()) != 2 {
		t.Errorf("journal size %d", len(l.Entries()))
	}
}

func TestTransferRejectsBadAmounts(t *testing.T) {
	l := New()
	for _, amt := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := l.Transfer(1, Consumer, Platform, amt, ""); err == nil {
			t.Errorf("amount %v should be rejected", amt)
		}
	}
	// A rejected transfer must not touch balances or the journal.
	if l.Balance(Consumer) != 0 || len(l.Entries()) != 0 {
		t.Error("rejected transfer had side effects")
	}
}

func TestZeroTransferJournaled(t *testing.T) {
	l := New()
	if err := l.Transfer(3, Consumer, Platform, 0, "no-trade round"); err != nil {
		t.Fatal(err)
	}
	if len(l.EntriesForRound(3)) != 1 {
		t.Error("zero transfer should be journaled")
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
			if err := l.Transfer(i, from, to, amt, ""); err != nil {
				return false
			}
		}
		return math.Abs(l.TotalImbalance()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSettleRound(t *testing.T) {
	l := New()
	err := l.SettleRound(5, 100, map[int]float64{2: 30, 7: 20})
	if err != nil {
		t.Fatal(err)
	}
	if l.Balance(Consumer) != -100 {
		t.Errorf("consumer %v", l.Balance(Consumer))
	}
	if l.Balance(Platform) != 50 {
		t.Errorf("platform %v", l.Balance(Platform))
	}
	if l.Balance(Seller(2)) != 30 || l.Balance(Seller(7)) != 20 {
		t.Error("seller balances wrong")
	}
	if got := l.Commission(5); got != 50 {
		t.Errorf("commission %v", got)
	}
	if got := l.Commission(99); got != 0 {
		t.Errorf("commission of untouched round %v", got)
	}
	if imbalance := l.TotalImbalance(); math.Abs(imbalance) > 1e-12 {
		t.Errorf("imbalance %v", imbalance)
	}
	entries := l.EntriesForRound(5)
	if len(entries) != 3 {
		t.Fatalf("entries %d", len(entries))
	}
	// Seller payments are journaled in id order for determinism.
	if entries[1].To != Seller(2) || entries[2].To != Seller(7) {
		t.Errorf("entry order: %+v", entries)
	}
}

func TestSettleRoundPropagatesErrors(t *testing.T) {
	l := New()
	if err := l.SettleRound(1, -5, nil); err == nil {
		t.Error("negative reward should fail")
	}
	if err := l.SettleRound(1, 5, map[int]float64{0: math.NaN()}); err == nil {
		t.Error("NaN seller payment should fail")
	}
}

func TestAccountsSorted(t *testing.T) {
	l := New()
	_ = l.Transfer(1, Seller(2), Seller(10), 1, "")
	_ = l.Transfer(1, Consumer, Platform, 1, "")
	got := l.Accounts()
	if len(got) != 4 {
		t.Fatalf("accounts %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("accounts not sorted: %v", got)
		}
	}
}

func TestEntriesIsCopy(t *testing.T) {
	l := New()
	_ = l.Transfer(1, Consumer, Platform, 1, "")
	e := l.Entries()
	e[0].Amount = 999
	if l.Entries()[0].Amount != 1 {
		t.Error("Entries leaked internal state")
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
	if l.Balance(Consumer) != 0 || len(l.Accounts()) != 0 || l.Entries() != nil || l.Commission(1) != 0 {
		t.Fatal("empty zero-value ledger reports state")
	}
	if err := l.Transfer(1, Consumer, Platform, 2, "reward"); err != nil {
		t.Fatal(err)
	}
	var settled Ledger
	if err := settled.SettleRoundSorted(1, 5, []int{0, 3}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if l.Balance(Platform) != 2 || settled.Balance(Seller(3)) != 2 || settled.Commission(1) != 2 {
		t.Fatalf("balances %v / %v", l.Balance(Platform), settled.Balance(Seller(3)))
	}
	var restored Ledger
	if err := restored.Restore(settled.State()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Entries(), settled.Entries()) {
		t.Fatal("zero-value Restore diverged")
	}
}

// TestRejectedOpsLeaveLedgerUntouched: a rejected Transfer or
// settlement changes nothing observable — no journal entry, no
// balance, and no newly touched account, even when the rejected call
// names accounts the ledger has never seen.
func TestRejectedOpsLeaveLedgerUntouched(t *testing.T) {
	l := New()
	if err := l.Transfer(1, Consumer, Platform, 3, "reward"); err != nil {
		t.Fatal(err)
	}
	if err := l.SettleRoundSorted(1, 4, []int{1, 2}, []float64{1, 0.5}); err != nil {
		t.Fatal(err)
	}
	probe := []Account{Consumer, Platform, Seller(1), Seller(2), Seller(7), Seller(9), "stranger", "other"}
	accounts, entries := l.Accounts(), l.Entries()
	balances := make([]float64, len(probe))
	for i, a := range probe {
		balances[i] = l.Balance(a)
	}
	rejected := map[string]func() error{
		"negative transfer": func() error { return l.Transfer(2, "stranger", "other", -1, "new memo") },
		"NaN transfer":      func() error { return l.Transfer(2, "stranger", Platform, math.NaN(), "") },
		"Inf transfer":      func() error { return l.Transfer(2, Consumer, "other", math.Inf(1), "") },
		"negative reward":   func() error { return l.SettleRoundSorted(2, -1, []int{7}, []float64{1}) },
		"NaN reward":        func() error { return l.SettleRoundSorted(2, math.NaN(), []int{7}, []float64{1}) },
		"NaN payment":       func() error { return l.SettleRoundSorted(2, 1, []int{7, 9}, []float64{1, math.NaN()}) },
		"negative payment":  func() error { return l.SettleRoundSorted(2, 1, []int{7}, []float64{-0.5}) },
		"unsorted ids":      func() error { return l.SettleRoundSorted(2, 1, []int{9, 7}, []float64{1, 1}) },
		"duplicate ids":     func() error { return l.SettleRoundSorted(2, 1, []int{7, 7}, []float64{1, 1}) },
		"length mismatch":   func() error { return l.SettleRoundSorted(2, 1, []int{7, 9}, []float64{1}) },
		"map NaN payment":   func() error { return l.SettleRound(2, 1, map[int]float64{7: 1, 9: math.NaN()}) },
	}
	for name, op := range rejected {
		if err := op(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if got := l.Accounts(); !reflect.DeepEqual(got, accounts) {
			t.Fatalf("%s: accounts %v, want %v", name, got, accounts)
		}
		if got := l.Entries(); !reflect.DeepEqual(got, entries) {
			t.Fatalf("%s: journal changed", name)
		}
		for i, a := range probe {
			if got := l.Balance(a); got != balances[i] {
				t.Fatalf("%s: balance of %s %v, want %v", name, a, got, balances[i])
			}
		}
	}
}

// TestJournalRecordPointerFree pins the journal's layout: a fixed-size
// record of numbers and ids the garbage collector never scans.
func TestJournalRecordPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n != 32 {
		t.Errorf("journal record is %d bytes, want 32", n)
	}
	rt := reflect.TypeOf(record{})
	for i := 0; i < rt.NumField(); i++ {
		switch rt.Field(i).Type.Kind() {
		case reflect.Int32, reflect.Int64, reflect.Float64:
		default:
			t.Errorf("journal record field %s is a %s", rt.Field(i).Name, rt.Field(i).Type)
		}
	}
}

// BenchmarkSettleRoundSorted books one K=10 settlement per op into a
// journal that restarts every 5000 rounds, the broker's job length, so
// the cost includes journal growth and the GC work a live journal
// causes.
func BenchmarkSettleRoundSorted(b *testing.B) {
	const k, rounds = 10, 5000
	ids := make([]int, k)
	pay := make([]float64, k)
	for j := range ids {
		ids[j] = 7*j + 3
		pay[j] = 0.25 * float64(j+1)
	}
	l := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%rounds == 0 {
			l = New()
		}
		if err := l.SettleRoundSorted(i%rounds+1, 10, ids, pay); err != nil {
			b.Fatal(err)
		}
	}
}
