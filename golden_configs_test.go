package cmabhs

// goldenConfigs are the fixed runs whose Save bytes are pinned in
// testdata/session_save.sha256: a small market under every fault
// model (churn deactivates sellers mid-run, so the ledger and the
// estimator both see departures) and a wide market at the broker's
// advance-heavy shape. The faulty market also runs under the two
// feedback policies (windowed and discounted UCB learn from each
// delivered row) and with the raw-data layer, and a Thompson run
// under i.i.d. delivery failures re-prices rounds with failed
// sellers; together they pin every path a round's collection feeds.
func goldenConfigs() map[string]Config {
	faulty := func() Config {
		cfg := RandomConfig(20, 5, 200, 41)
		cfg.Faults = &FaultConfig{
			Channel:   ChannelFaults{GoodToBad: 0.1, BadToGood: 0.4, LossGood: 0.05, LossBad: 0.8},
			Churn:     ChurnFaults{Rate: 0.005},
			Straggler: StragglerFaults{Prob: 0.1, MeanDelay: 0.5, Deadline: 2},
			Byzantine: ByzantineFaults{Sellers: []int{3, 11}, Inflation: 0.2},
		}
		return cfg
	}
	swUCB := faulty()
	swUCB.Policy = PolicySlidingWindow
	dUCB := faulty()
	dUCB.Policy = PolicyDiscounted
	data := faulty()
	data.CollectData = true
	thompson := RandomConfig(30, 6, 150, 5)
	thompson.DeliveryRate = 0.7
	thompson.Policy = PolicyThompson
	return map[string]Config{
		"m20-k5-faults-r200":        faulty(),
		"m20-k5-faults-r200-sw-ucb": swUCB,
		"m20-k5-faults-r200-d-ucb":  dUCB,
		"m20-k5-faults-r200-data":   data,
		"m30-k6-d70-thompson-r150":  thompson,
		"m300-k10-r60":              RandomConfig(300, 10, 60, 9),
	}
}

// GoldenConfigs exposes goldenConfigs to the external golden tests.
var GoldenConfigs = goldenConfigs
