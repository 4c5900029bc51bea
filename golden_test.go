package cmabhs_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cmabhs"
)

// goldenConfigs are the fixed runs whose Save bytes are pinned in
// testdata/session_save.sha256: a small market under every fault
// model (churn deactivates sellers mid-run, so the journal and the
// estimator both see departures) and a wide market at the broker's
// advance-heavy shape.
func goldenConfigs() map[string]cmabhs.Config {
	faulty := cmabhs.RandomConfig(20, 5, 200, 41)
	faulty.Faults = &cmabhs.FaultConfig{
		Channel:   cmabhs.ChannelFaults{GoodToBad: 0.1, BadToGood: 0.4, LossGood: 0.05, LossBad: 0.8},
		Churn:     cmabhs.ChurnFaults{Rate: 0.005},
		Straggler: cmabhs.StragglerFaults{Prob: 0.1, MeanDelay: 0.5, Deadline: 2},
		Byzantine: cmabhs.ByzantineFaults{Sellers: []int{3, 11}, Inflation: 0.2},
	}
	return map[string]cmabhs.Config{
		"m20-k5-faults-r200": faulty,
		"m300-k10-r60":       cmabhs.RandomConfig(300, 10, 60, 9),
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
// journal's layout above all — would pass them unnoticed; a digest
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
