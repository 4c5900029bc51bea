// Package ledger implements the payment-settlement substrate of the
// CDT incentive mechanism (Definition 5): once a round's incentive
// strategy ⟨p^J, p, τ⟩ is fixed, the consumer pays the platform
// p^J·Στ_i and the platform pays each selected seller p·τ_i; the
// difference is the platform's commission. The ledger double-books
// every transfer, so conservation (Σ balances = 0 for accounts that
// start empty) is an enforced invariant rather than an assumption.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Account identifies a trading party.
type Account string

// Well-known accounts of a CDT market; sellers get Seller(i).
const (
	Consumer Account = "consumer"
	Platform Account = "platform"
)

// Seller returns the account of seller i.
func Seller(i int) Account { return Account(fmt.Sprintf("seller-%d", i)) }

// Errors returned by Ledger operations.
var (
	ErrNegativeAmount = errors.New("ledger: negative transfer amount")
	ErrBadAmount      = errors.New("ledger: amount must be finite")
)

// Entry is one journaled transfer.
type Entry struct {
	Round  int     `json:"round"`  // trading round the transfer settles
	From   Account `json:"from"`   // payer
	To     Account `json:"to"`     // payee
	Amount float64 `json:"amount"` // non-negative
	Memo   string  `json:"memo"`   // human-readable reason ("service reward", ...)
}

// Ledger tracks balances and the full journal. The zero value is
// ready to use. Balances may go negative: parties fund payments from
// external wealth, and a negative balance is exactly their net spend.
//
// Accounts and memos are interned to dense int32 ids the first time a
// booked transfer names them, so the journal is a slice of small
// pointer-free records the garbage collector never scans, and the
// settle path books by id without hashing strings. The exported API
// rebuilds Entry values from the tables on demand.
type Ledger struct {
	accounts table[Account] // account id ↔ name
	balances []float64      // account id → net position
	memos    table[string]  // memo id ↔ text
	journal  []record

	// Settle-path ids, interned on the first settlement: the two
	// market accounts, the two settlement memos, and Seller(i) ids
	// stored +1 so that 0 marks a seller not booked yet.
	settleReady             bool
	consumer, platform      int32
	rewardMemo, collectMemo int32
	sellers                 []int32
}

// record is one journaled transfer by interned id: 32 bytes and free
// of pointers.
type record struct {
	round          int64
	amount         float64
	from, to, memo int32
}

// table interns strings to dense int32 ids in first-seen order. The
// zero value is an empty table.
type table[S ~string] struct {
	names []S
	ids   map[S]int32
}

// intern returns s's id, adding s on first sight.
func (t *table[S]) intern(s S) int32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[S]int32)
	}
	id := int32(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	return id
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{} }

// account returns a's id, interning it (at a zero balance) on first
// sight.
func (l *Ledger) account(a Account) int32 {
	id := l.accounts.intern(a)
	if int(id) == len(l.balances) {
		l.balances = append(l.balances, 0)
	}
	return id
}

// checkAmount rejects negative and non-finite transfer amounts.
func checkAmount(amount float64) error {
	if math.IsNaN(amount) || math.IsInf(amount, 0) {
		return fmt.Errorf("%w (got %v)", ErrBadAmount, amount)
	}
	if amount < 0 {
		return fmt.Errorf("%w (got %v)", ErrNegativeAmount, amount)
	}
	return nil
}

// book applies one validated transfer between interned ids.
func (l *Ledger) book(round int, from, to int32, amount float64, memo int32) {
	l.balances[from] -= amount
	l.balances[to] += amount
	l.journal = append(l.journal, record{round: int64(round), amount: amount, from: from, to: to, memo: memo})
}

// Transfer moves amount from one account to another in round r.
// Zero-amount transfers are journaled too (they document a no-trade
// round); negative or non-finite amounts are rejected and leave the
// ledger untouched.
func (l *Ledger) Transfer(round int, from, to Account, amount float64, memo string) error {
	if err := checkAmount(amount); err != nil {
		return err
	}
	l.book(round, l.account(from), l.account(to), amount, l.memos.intern(memo))
	return nil
}

// Balance returns the account's current net position (0 for an
// account no transfer has touched).
func (l *Ledger) Balance(a Account) float64 {
	if id, ok := l.accounts.ids[a]; ok {
		return l.balances[id]
	}
	return 0
}

// TotalImbalance returns Σ balances, which must stay ~0: transfers
// only move money, never create it. Callers assert this invariant.
func (l *Ledger) TotalImbalance() float64 {
	var sum float64
	for _, v := range l.balances {
		sum += v
	}
	return sum
}

// entry expands a journal record into its exported form.
func (l *Ledger) entry(r record) Entry {
	names := l.accounts.names
	return Entry{Round: int(r.round), From: names[r.from], To: names[r.to], Amount: r.amount, Memo: l.memos.names[r.memo]}
}

// Entries returns a copy of the journal.
func (l *Ledger) Entries() []Entry {
	if len(l.journal) == 0 {
		return nil
	}
	out := make([]Entry, len(l.journal))
	for i, r := range l.journal {
		out[i] = l.entry(r)
	}
	return out
}

// EntriesForRound returns the journal entries of one round.
func (l *Ledger) EntriesForRound(round int) []Entry {
	var out []Entry
	for _, r := range l.journal {
		if r.round == int64(round) {
			out = append(out, l.entry(r))
		}
	}
	return out
}

// Accounts returns all accounts touched so far, sorted.
func (l *Ledger) Accounts() []Account {
	out := append([]Account(nil), l.accounts.names...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State is the serializable state of a Ledger: the journal alone.
// Balances are a pure fold over the journal, so Restore rebuilds them
// instead of trusting a second copy that could disagree.
type State struct {
	Journal []Entry `json:"journal"`
}

// State exports the ledger for persistence.
func (l *Ledger) State() State {
	return State{Journal: l.Entries()}
}

// Restore replaces the ledger's contents by replaying an exported
// journal through the same validation as live transfers, so a
// corrupted snapshot cannot smuggle in a NaN or negative amount.
func (l *Ledger) Restore(st State) error {
	var fresh Ledger
	fresh.journal = make([]record, 0, len(st.Journal))
	for i, e := range st.Journal {
		if err := fresh.Transfer(e.Round, e.From, e.To, e.Amount, e.Memo); err != nil {
			return fmt.Errorf("ledger: journal entry %d: %w", i, err)
		}
	}
	*l = fresh
	return nil
}

// SettleRound books one round's CDT payments: the consumer pays the
// platform reward·1 (p^J·Στ) and the platform pays seller i
// sellerPay[i] (p·τ_i), journaled in ascending seller id. A failed
// call leaves the ledger untouched.
func (l *Ledger) SettleRound(round int, reward float64, sellerPay map[int]float64) error {
	ids := make([]int, 0, len(sellerPay))
	for id := range sellerPay {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	pay := make([]float64, len(ids))
	for j, id := range ids {
		pay[j] = sellerPay[id]
	}
	return l.SettleRoundSorted(round, reward, ids, pay)
}

// SettleRoundSorted is the allocation-free form of SettleRound: ids
// and pay are parallel slices with ids sorted ascending and free of
// duplicates (the journal order SettleRound produces). Violations are
// rejected before anything is booked, so a failed call leaves the
// ledger untouched.
func (l *Ledger) SettleRoundSorted(round int, reward float64, ids []int, pay []float64) error {
	if len(ids) != len(pay) {
		return fmt.Errorf("ledger: %d seller ids for %d payments", len(ids), len(pay))
	}
	for j := 1; j < len(ids); j++ {
		if ids[j] <= ids[j-1] {
			return fmt.Errorf("ledger: seller ids not strictly ascending at %d", j)
		}
	}
	if err := checkAmount(reward); err != nil {
		return err
	}
	for _, v := range pay {
		if err := checkAmount(v); err != nil {
			return err
		}
	}
	if !l.settleReady {
		l.consumer, l.platform = l.account(Consumer), l.account(Platform)
		l.rewardMemo, l.collectMemo = l.memos.intern("data service reward"), l.memos.intern("data collection reward")
		l.settleReady = true
	}
	l.book(round, l.consumer, l.platform, reward, l.rewardMemo)
	for j, id := range ids {
		l.book(round, l.platform, l.sellerAccount(id), pay[j], l.collectMemo)
	}
	return nil
}

// sellerAccount returns the id of Seller(i) from a memoized table so
// the hot settle path neither formats nor hashes the account name
// after a seller's first payment.
func (l *Ledger) sellerAccount(i int) int32 {
	if i < 0 {
		return l.account(Seller(i)) // out-of-model id; intern directly
	}
	if len(l.sellers) <= i {
		l.sellers = append(l.sellers, make([]int32, i+1-len(l.sellers))...)
	}
	if l.sellers[i] == 0 {
		l.sellers[i] = l.account(Seller(i)) + 1
	}
	return l.sellers[i] - 1
}

// Commission returns the platform's net take for a round: reward in
// minus seller payments out.
func (l *Ledger) Commission(round int) float64 {
	platform, ok := l.accounts.ids[Platform]
	if !ok {
		return 0
	}
	var in, out float64
	for _, r := range l.journal {
		if r.round != int64(round) {
			continue
		}
		if r.to == platform {
			in += r.amount
		}
		if r.from == platform {
			out += r.amount
		}
	}
	return in - out
}
