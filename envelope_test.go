package cmabhs

import (
	"encoding/json"
	"testing"

	"cmabhs/internal/economics"
)

// FuzzSolveGameFinite checks the input envelope end to end: every
// GameConfig that SolveGame accepts yields an outcome whose numbers are
// all finite — so it encodes as JSON. Two seller profiles are
// alternated over n sellers; the numeric solver runs at n ≤ 2 only.
func FuzzSolveGameFinite(f *testing.F) {
	f.Add(uint8(2), 0.2, 0.1, 0.9, 0.3, 0.2, 0.5, 0.1, 1.0, 1000.0, 0.0, 100.0, 0.0, 5.0, 0.0, uint8(0))
	f.Add(uint8(1), 1e-6, 1e6, 1e-6, 1e6, 0.0, 1.0, 1e-6, 1e6, 1e6, 0.0, 1e6, 0.0, 1e6, 1e6, uint8(1))
	f.Add(uint8(2), 1e6, 0.0, 1.0, 1e-6, 1e6, 1e-6, 1e6, 0.0, 1.000001, 1e6, 1e6, 0.0, 1e6, 0.0, uint8(2))
	f.Add(uint8(8), 1e-6, 0.0, 1e-6, 1e-6, 0.0, 1e-6, 1e-6, 0.0, 1e6, 0.0, 1e6, 1e6, 1e6, 1e-6, uint8(0))
	f.Add(uint8(2), 0.2, 0.1, 0.9, 0.3, 0.2, 0.5, 0.1, 1e308, 1e308, 0.0, 1e308, 0.0, 1e308, 1e308, uint8(1))
	f.Fuzz(func(t *testing.T, n uint8, a1, b1, q1, a2, b2, q2, theta, lambda, omega, pjMin, pjMax, pMin, pMax, maxT float64, solver uint8) {
		solvers := []Solver{SolverClosedForm, SolverExact, SolverNumeric}
		c := GameConfig{
			Theta: theta, Lambda: lambda, Omega: omega,
			PJMin: pjMin, PJMax: pjMax, PMin: pMin, PMax: pMax,
			MaxSensing: maxT,
			Solver:     solvers[int(solver)%len(solvers)],
		}
		k := 1 + int(n)%8
		if c.Solver == SolverNumeric && k > 2 {
			k = 2
		}
		for i := 0; i < k; i++ {
			s := GameSeller{CostQuadratic: a1, CostLinear: b1, Quality: q1}
			if i%2 == 1 {
				s = GameSeller{CostQuadratic: a2, CostLinear: b2, Quality: q2}
			}
			c.Sellers = append(c.Sellers, s)
		}
		out, err := SolveGame(c)
		if err != nil {
			return // refused at entry: the envelope did its job
		}
		if _, err := json.Marshal(out); err != nil {
			t.Fatalf("accepted config %+v gave a non-finite outcome %+v: %v", c, out, err)
		}
	})
}

// TestSessionAtEnvelopeCorners runs a short session at every corner of
// the input envelope — seller costs, platform cost, valuation, price
// caps and T at their extremes, true qualities 0 and 1 — and checks
// every played round encodes as JSON and the session Saves: no
// accepted configuration reaches a state the snapshot cannot encode.
func TestSessionAtEnvelopeCorners(t *testing.T) {
	lo, hi := economics.MinParam, economics.MaxParam
	corners := [][2]float64{
		{lo, hi},       // a
		{0, hi},        // b
		{0, 1},         // true quality
		{lo, hi},       // θ
		{lo, hi},       // λ (0 would mean the default)
		{1.000001, hi}, // ω
		{lo, hi},       // p^J cap
		{lo, hi},       // p cap
		{0, hi},        // T
		{0, 1},         // collect data
	}
	for mask := 0; mask < 1<<len(corners); mask++ {
		v := make([]float64, len(corners))
		for i, c := range corners {
			v[i] = c[mask>>i&1]
		}
		cfg := Config{
			K: 2, Rounds: 6, Seed: int64(mask),
			Theta: v[3], Lambda: v[4], Omega: v[5], PJMax: v[6], PMax: v[7],
			RoundDuration: v[8], CollectData: v[9] == 1,
		}
		for i := 0; i < 3; i++ {
			cfg.Sellers = append(cfg.Sellers, Seller{CostQuadratic: v[0], CostLinear: v[1], ExpectedQuality: v[2]})
		}
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("corner %v refused: %v", v, err)
		}
		adv, err := sess.Advance(0)
		if err != nil {
			t.Fatalf("corner %v: advance: %v", v, err)
		}
		if _, err := json.Marshal(adv.Played); err != nil {
			t.Fatalf("corner %v: rounds do not encode: %v", v, err)
		}
		if _, err := sess.Save(); err != nil {
			t.Fatalf("corner %v: save: %v", v, err)
		}
	}
}
