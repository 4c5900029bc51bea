package cmabhs_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cmabhs"
	"cmabhs/internal/core"
)

// goldenConfigs are the fixed runs whose Save bytes are pinned in
// testdata/session_save.sha256: a small market under every fault
// model (churn deactivates sellers mid-run, so the ledger and the
// estimator both see departures) and a wide market at the broker's
// advance-heavy shape. The faulty market also runs under the two
// feedback policies (windowed and discounted UCB learn from each
// delivered row) and with the raw-data layer, and a Thompson run
// under i.i.d. delivery failures re-prices rounds with failed
// sellers; together they pin every path a round's collection feeds.
func goldenConfigs() map[string]cmabhs.Config {
	faulty := func() cmabhs.Config {
		cfg := cmabhs.RandomConfig(20, 5, 200, 41)
		cfg.Faults = &cmabhs.FaultConfig{
			Channel:   cmabhs.ChannelFaults{GoodToBad: 0.1, BadToGood: 0.4, LossGood: 0.05, LossBad: 0.8},
			Churn:     cmabhs.ChurnFaults{Rate: 0.005},
			Straggler: cmabhs.StragglerFaults{Prob: 0.1, MeanDelay: 0.5, Deadline: 2},
			Byzantine: cmabhs.ByzantineFaults{Sellers: []int{3, 11}, Inflation: 0.2},
		}
		return cfg
	}
	swUCB := faulty()
	swUCB.Policy = cmabhs.PolicySlidingWindow
	dUCB := faulty()
	dUCB.Policy = cmabhs.PolicyDiscounted
	data := faulty()
	data.CollectData = true
	thompson := cmabhs.RandomConfig(30, 6, 150, 5)
	thompson.DeliveryRate = 0.7
	thompson.Policy = cmabhs.PolicyThompson
	return map[string]cmabhs.Config{
		"m20-k5-faults-r200":        faulty(),
		"m20-k5-faults-r200-sw-ucb": swUCB,
		"m20-k5-faults-r200-d-ucb":  dUCB,
		"m20-k5-faults-r200-data":   data,
		"m30-k6-d70-thompson-r150":  thompson,
		"m300-k10-r60":              cmabhs.RandomConfig(300, 10, 60, 9),
	}
}

// readGolden parses "name sha256hex" lines.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "session_save.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSessionSaveGolden pins the exact bytes of Session.Save for fixed
// runs. The round-trip tests compare snapshots produced by the same
// build, so a change to the snapshot encoding — the settlement
// ledger's layout above all — would pass them unnoticed; a digest
// recorded once catches any drift in the saved bytes.
func TestSessionSaveGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which legally
		// changes low-order bits of the simulated market.
		t.Skipf("digests are recorded on amd64, running on %s", runtime.GOARCH)
	}
	want := readGolden(t)
	for name, cfg := range goldenConfigs() {
		sess, err := cmabhs.NewSession(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sess.Advance(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sess.Done() {
			t.Fatalf("%s: session stopped early: %s", name, sess.Stopped())
		}
		data, err := sess.Save()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: Save digest %s, golden %q (%d bytes)", name, got, want[name], len(data))
		}
	}
}

// v1Fixture is Session.Save of goldenConfigs()["m20-k5-faults-r200"]
// after 40 rounds, written by the last build whose mechanism state was
// version 1: its ledger is the journal of every transfer booked, not
// the constant-size fold later versions persist.
const v1Fixture = "session_v1_m20-k5-faults-r40.json"

// TestV1SnapshotRefused: a version-1 snapshot is refused for its state
// version, with the typed error, rather than migrated.
func TestV1SnapshotRefused(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", v1Fixture))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cmabhs.ResumeSession(data); !errors.Is(err, core.ErrStateVersion) {
		t.Fatalf("version-1 snapshot: %v, want ErrStateVersion", err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
