// Package ledger implements the payment-settlement substrate of the
// CDT incentive mechanism (Definition 5): once a round's incentive
// strategy ⟨p^J, p, τ⟩ is fixed, the consumer pays the platform
// p^J·Στ_i and the platform pays each selected seller p·τ_i; the
// difference is the platform's commission. The ledger double-books
// every transfer, so conservation (Σ balances = 0 for accounts that
// start empty) is an enforced invariant rather than an assumption.
//
// Every transfer is a pure function of its round's record, which the
// round log and the event stream already carry, so the ledger keeps
// no journal. It keeps balances, a transfer count, and a running
// SHA-256 over a canonical encoding of every booked transfer: state
// whose size depends on the number of accounts, not on the number of
// rounds played, yet two ledgers with equal state have booked the same
// payment history.
package ledger

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
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

// Errors returned by Ledger operations. ErrBadState wraps every reason
// Restore refuses a state.
var (
	ErrNegativeAmount = errors.New("ledger: negative transfer amount")
	ErrBadAmount      = errors.New("ledger: amount must be finite")
	ErrBadState       = errors.New("ledger: invalid state")
)

// recordSize is the width of one transfer in the digest's canonical
// encoding: round (int64), payer and payee account ids (uint32 each)
// and the amount's IEEE-754 bits, all little-endian. Account ids are
// positions in State.Accounts, so the encoding is fixed by the state.
const recordSize = 24

// Ledger tracks balances and a digest of every booked transfer. The
// zero value is ready to use. Balances may go negative: parties fund
// payments from external wealth, and a negative balance is exactly
// their net spend.
//
// Accounts are interned to dense int32 ids the first time a booked
// transfer names them; the settle path books by id without hashing
// strings.
type Ledger struct {
	accounts  []Account // account id → name
	ids       map[Account]int32
	balances  []float64 // account id → net position
	transfers int64     // transfers booked
	digest    hash.Hash // SHA-256 over the canonical records; nil before the first booking
	pending   []byte    // records booked but not yet written to digest

	// Settle-path ids, interned on the first settlement: the two
	// market accounts, and Seller(i) ids stored +1 so that 0 marks a
	// seller not booked yet.
	settleReady        bool
	consumer, platform int32
	sellers            []int32
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{} }

// account returns a's id, interning it (at a zero balance) on first
// sight.
func (l *Ledger) account(a Account) int32 {
	if id, ok := l.ids[a]; ok {
		return id
	}
	if l.ids == nil {
		l.ids = make(map[Account]int32)
	}
	id := int32(len(l.accounts))
	l.accounts = append(l.accounts, a)
	l.balances = append(l.balances, 0)
	l.ids[a] = id
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

// book applies one validated transfer between interned ids and queues
// its canonical record for the digest.
func (l *Ledger) book(round int, from, to int32, amount float64) {
	l.balances[from] -= amount
	l.balances[to] += amount
	l.transfers++
	le := binary.LittleEndian
	b := le.AppendUint64(l.pending, uint64(int64(round)))
	b = le.AppendUint32(b, uint32(from))
	b = le.AppendUint32(b, uint32(to))
	l.pending = le.AppendUint64(b, math.Float64bits(amount))
}

// commit feeds the queued records to the digest. The digest is a
// stream, so booking transfers one commit at a time or many per
// commit gives the same sum.
func (l *Ledger) commit() {
	if l.digest == nil {
		l.digest = sha256.New()
	}
	l.digest.Write(l.pending)
	l.pending = l.pending[:0]
}

// Transfer moves amount from one account to another in round r.
// Zero-amount transfers are booked too (they document a no-trade
// round); negative or non-finite amounts are rejected and leave the
// ledger untouched.
func (l *Ledger) Transfer(round int, from, to Account, amount float64) error {
	if err := checkAmount(amount); err != nil {
		return err
	}
	l.book(round, l.account(from), l.account(to), amount)
	l.commit()
	return nil
}

// Balance returns the account's current net position (0 for an
// account no transfer has touched).
func (l *Ledger) Balance(a Account) float64 {
	if id, ok := l.ids[a]; ok {
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

// ImbalanceBound is the largest |TotalImbalance| that rounding alone
// can explain. Each booking rounds two balance updates, each off by at
// most half an ulp of a balance no larger than today's Σ|balance| (in
// settlement the consumer only pays and sellers only receive, and the
// platform holds the difference), and summing the balances adds one
// rounding per account; ε = 2⁻⁵² doubles the half-ulp for margin. The
// bound grows with the run, so a legitimate long run never exceeds it.
func (l *Ledger) ImbalanceBound() float64 {
	var abs float64
	for _, v := range l.balances {
		abs += math.Abs(v)
	}
	const eps = 0x1p-52
	return eps * float64(2*l.transfers+int64(len(l.balances))) * abs
}

// State is the serializable state of a Ledger. Its size depends on the
// number of accounts only. Balances encode as shortest-repr JSON
// numbers, which decode to the same bits, so a restored ledger keeps
// booking exactly as the original would have.
type State struct {
	Accounts  []Account `json:"accounts"`  // account names in id order
	Balances  []float64 `json:"balances"`  // net position per account
	Transfers int64     `json:"transfers"` // transfers booked
	// Digest is the SHA-256 state (encoding.BinaryMarshaler) after
	// hashing the canonical record of every booked transfer in booking
	// order. Equal digests mean equal payment histories.
	Digest []byte `json:"digest"`
}

// State exports the ledger for persistence.
func (l *Ledger) State() State {
	h := l.digest
	if h == nil {
		h = sha256.New()
	}
	d, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("ledger: sha256 state: %v", err)) // never fails for crypto/sha256
	}
	return State{
		Accounts:  append([]Account(nil), l.accounts...),
		Balances:  append([]float64(nil), l.balances...),
		Transfers: l.transfers,
		Digest:    d,
	}
}

// Restore replaces the ledger's contents with an exported state. It
// refuses, with an error wrapping ErrBadState and leaving the ledger
// untouched, any state no sequence of valid transfers could have
// produced as far as it can tell: mismatched lengths, duplicate
// accounts, accounts without transfers, non-finite balances or ones
// whose magnitudes overflow when summed, a malformed digest or one
// over a different number of transfers, and a conservation residual
// beyond ImbalanceBound.
func (l *Ledger) Restore(st State) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrBadState}, args...)...)
	}
	if len(st.Accounts) != len(st.Balances) {
		return bad("%d accounts with %d balances", len(st.Accounts), len(st.Balances))
	}
	if st.Transfers < 0 || st.Transfers > math.MaxInt64/recordSize {
		return bad("transfer count %d", st.Transfers)
	}
	if int64(len(st.Accounts)) > 2*st.Transfers {
		return bad("%d accounts after %d transfers", len(st.Accounts), st.Transfers)
	}
	fresh := Ledger{
		accounts:  append([]Account(nil), st.Accounts...),
		ids:       make(map[Account]int32, len(st.Accounts)),
		balances:  append([]float64(nil), st.Balances...),
		transfers: st.Transfers,
		digest:    sha256.New(),
	}
	for i, a := range fresh.accounts {
		if _, dup := fresh.ids[a]; dup {
			return bad("duplicate account %q", a)
		}
		fresh.ids[a] = int32(i)
		if v := fresh.balances[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return bad("balance of %q is %v", a, v)
		}
	}
	if err := fresh.digest.(encoding.BinaryUnmarshaler).UnmarshalBinary(st.Digest); err != nil {
		return bad("digest: %v", err)
	}
	// The SHA-256 state ends with the big-endian count of bytes hashed.
	if n := binary.BigEndian.Uint64(st.Digest[len(st.Digest)-8:]); n != uint64(st.Transfers)*recordSize {
		return bad("digest covers %d bytes, %d transfers need %d", n, st.Transfers, st.Transfers*recordSize)
	}
	tol := fresh.ImbalanceBound()
	if math.IsInf(tol, 0) {
		return bad("balances overflow")
	}
	if imb := fresh.TotalImbalance(); math.Abs(imb) > tol {
		return bad("conservation residual %g exceeds %g", imb, tol)
	}
	*l = fresh
	return nil
}

// SettleRoundSorted books one round's CDT payments: the consumer pays
// the platform reward (p^J·Στ) and the platform pays seller ids[j]
// pay[j] (p·τ_j), in that order. ids must be sorted ascending and free
// of duplicates, so the booking order — and with it the digest — is
// deterministic. Violations are rejected before anything is booked,
// so a failed call leaves the ledger untouched.
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
		l.settleReady = true
	}
	l.book(round, l.consumer, l.platform, reward)
	for j, id := range ids {
		l.book(round, l.platform, l.sellerAccount(id), pay[j])
	}
	l.commit()
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
