package cmabhs_test

import (
	"fmt"

	"cmabhs"
)

// ExampleRun simulates a small market end to end. Exact profit
// numbers depend on the seeded randomness; the learning result is
// deterministic under a fixed seed.
func ExampleRun() {
	cfg := cmabhs.Config{
		Sellers: []cmabhs.Seller{
			{CostQuadratic: 0.2, CostLinear: 0.1, ExpectedQuality: 0.9},
			{CostQuadratic: 0.3, CostLinear: 0.2, ExpectedQuality: 0.6},
			{CostQuadratic: 0.4, CostLinear: 0.3, ExpectedQuality: 0.3},
		},
		K:      2,
		Rounds: 500,
		Seed:   1,
	}
	res, err := cmabhs.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("policy:", res.Policy)
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("learned the best seller:", argmax(res.Estimates) == 0)
	// Output:
	// policy: CMAB-HS
	// rounds: 500
	// learned the best seller: true
}

// ExampleSolveGame prices one trading round: the consumer's service
// price, the platform's collection price, and each seller's sensing
// time at the Stackelberg Equilibrium.
func ExampleSolveGame() {
	out, err := cmabhs.SolveGame(cmabhs.GameConfig{
		Sellers: []cmabhs.GameSeller{
			{CostQuadratic: 0.25, CostLinear: 0.5, Quality: 0.5},
			{CostQuadratic: 0.5, CostLinear: 1.0, Quality: 1.0},
		},
		Theta:  0.5,
		Lambda: 1,
		Omega:  100,
		PJMax:  50,
		PMax:   5,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("p^J* = %.3f\n", out.ConsumerPrice)
	fmt.Printf("p*   = %.3f\n", out.PlatformPrice)
	fmt.Printf("tau* = %.3f, %.3f\n", out.SensingTimes[0], out.SensingTimes[1])
	fmt.Println("trade:", !out.NoTrade)
	// Output:
	// p^J* = 8.504
	// p*   = 1.415
	// tau* = 4.659, 0.415
	// trade: true
}

// ExampleNewSession advances a market round by round.
func ExampleNewSession() {
	sess, err := cmabhs.NewSession(cmabhs.RandomConfig(10, 3, 50, 42))
	if err != nil {
		panic(err)
	}
	r, err := sess.Step() // round 1: initial exploration of all sellers
	if err != nil {
		panic(err)
	}
	fmt.Println("round 1 selected:", len(r.Selected), "sellers")
	adv, err := sess.Advance(1000) // runs to the horizon
	if err != nil {
		panic(err)
	}
	fmt.Println("remaining rounds:", len(adv.Played))
	fmt.Println("done:", sess.Done())
	// Output:
	// round 1 selected: 10 sellers
	// remaining rounds: 49
	// done: true
}

// ExampleSession_Save interrupts a run mid-way, serializes it, and
// resumes it elsewhere: the resumed run finishes with exactly the
// same result as one that was never interrupted.
func ExampleSession_Save() {
	cfg := cmabhs.RandomConfig(10, 3, 50, 42)

	// Reference: the uninterrupted run.
	ref, err := cmabhs.Run(cfg)
	if err != nil {
		panic(err)
	}

	// Interrupted run: play 20 rounds, save, drop the session.
	sess, err := cmabhs.NewSession(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := sess.Advance(20); err != nil {
		panic(err)
	}
	snapshot, err := sess.Save() // persist these bytes anywhere
	if err != nil {
		panic(err)
	}

	// Later, in a fresh process: resume and finish.
	resumed, err := cmabhs.ResumeSession(snapshot)
	if err != nil {
		panic(err)
	}
	fmt.Println("resumed at round:", resumed.NextRound())
	if _, err := resumed.Advance(0); err != nil { // to completion
		panic(err)
	}
	res := resumed.Result()
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("identical revenue:", res.RealizedRevenue == ref.RealizedRevenue)
	fmt.Println("identical regret:", res.Regret == ref.Regret)
	// Output:
	// resumed at round: 21
	// rounds: 50
	// identical revenue: true
	// identical regret: true
}

// ExampleSession_Observe attaches a per-round telemetry hook. The
// observer is strictly passive — the run's trajectory, results, and
// snapshots are identical with or without it — and the event is
// borrowed, so anything kept past the callback must be copied.
func ExampleSession_Observe() {
	sess, err := cmabhs.NewSession(cmabhs.RandomConfig(6, 2, 30, 7))
	if err != nil {
		panic(err)
	}
	events, faults := 0, 0
	sess.Observe(func(ev *cmabhs.RoundEvent) {
		events++
		faults += len(ev.FailedSellers)
		if ev.Round.Round == 1 && ev.UCB != nil {
			panic("round 1 is pure exploration: no UCB indices yet")
		}
	})
	if _, err := sess.Advance(0); err != nil { // to the horizon
		panic(err)
	}
	fmt.Println("events:", events)
	fmt.Println("fault events:", faults)
	fmt.Println("done:", sess.Done())
	// Output:
	// events: 30
	// fault events: 0
	// done: true
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
