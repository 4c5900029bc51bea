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
	for name, cfg := range cmabhs.GoldenConfigs() {
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
