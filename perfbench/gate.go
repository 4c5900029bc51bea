package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"cmabhs"
	"cmabhs/internal/server"
)

// gateResult counts the correctness checks a gate made.
type gateResult struct {
	checks   int
	failures []string
}

func (g *gateResult) fail(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

func (g *gateResult) add(o gateResult) {
	g.checks += o.checks
	g.failures = append(g.failures, o.failures...)
}

// bareSnapshot rebuilds a job's configuration through the public
// cmabhs API — exactly the JobRequest the generator sent — advances a
// bare Session (no broker, no observer) to the given round, and
// returns its Save bytes.
func bareSnapshot(spec jobSpec, rounds int) ([]byte, error) {
	sess, err := cmabhs.NewSession(cmabhs.RandomConfig(spec.m, spec.k, horizon, spec.seed))
	if err != nil {
		return nil, err
	}
	for rounds > 0 {
		n := min(rounds, 4096)
		adv, err := sess.AdvanceContext(context.Background(), n)
		if err != nil {
			return nil, err
		}
		if len(adv.Played) != n {
			return nil, fmt.Errorf("bare session played %d of %d rounds", len(adv.Played), n)
		}
		rounds -= n
	}
	return sess.Save()
}

// brokerSnapshot takes a job's snapshot through POST
// /v1/jobs/{id}/snapshot and returns the payload bytes.
func brokerSnapshot(h http.Handler, id string) ([]byte, error) {
	b := &broker{h: h}
	out := b.serve(http.MethodPost, "/v1/jobs/"+id+"/snapshot", "", true)
	if !out.ok() {
		return nil, fmt.Errorf("snapshot %s: status %d", id, out.code)
	}
	var resp server.SnapshotResponse
	if err := json.Unmarshal(out.body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", id, err)
	}
	return resp.Snapshot, nil
}

// nextRound reads a job's next_round through GET /v1/jobs/{id}.
func nextRound(h http.Handler, id string) (int, error) {
	b := &broker{h: h}
	out := b.serve(http.MethodGet, "/v1/jobs/"+id, "", true)
	if !out.ok() {
		return 0, fmt.Errorf("status %s: %d", id, out.code)
	}
	var st server.JobStatus
	if err := json.Unmarshal(out.body.Bytes(), &st); err != nil {
		return 0, err
	}
	return st.NextRound, nil
}

// gateJobs checks every listed job on h: its snapshot must equal,
// byte for byte, the Save of a bare Session advanced to the same
// round, and must equal want[id] when a reference is given. The bare
// replays run on two workers.
func gateJobs(h http.Handler, specs map[string]jobSpec, want map[string][]byte) gateResult {
	ids := make([]string, 0, len(specs))
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var mu sync.Mutex
	var g gateResult
	var wg sync.WaitGroup
	work := make(chan string)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				r := gateJob(h, id, specs[id], want[id])
				mu.Lock()
				g.add(r)
				mu.Unlock()
			}
		}()
	}
	for _, id := range ids {
		work <- id
	}
	close(work)
	wg.Wait()
	return g
}

func gateJob(h http.Handler, id string, spec jobSpec, want []byte) gateResult {
	g := gateResult{checks: 1}
	got, err := brokerSnapshot(h, id)
	if err != nil {
		g.fail("%v", err)
		return g
	}
	next, err := nextRound(h, id)
	if err != nil {
		g.fail("%v", err)
		return g
	}
	bare, err := bareSnapshot(spec, next-1)
	if err != nil {
		g.fail("bare replay of %s: %v", id, err)
		return g
	}
	if !bytes.Equal(got, bare) {
		g.fail("job %s at round %d: broker snapshot (%d B) differs from bare session (%d B)", id, next-1, len(got), len(bare))
	}
	if want != nil {
		g.checks++
		if !bytes.Equal(got, want) {
			g.fail("job %s: snapshot after restart (%d B) differs from the one before (%d B)", id, len(got), len(want))
		}
	}
	return g
}

// restartResult is what the restart measured.
type restartResult struct {
	recovery []float64 // per sample: seconds per restart
	replayed float64   // WAL rounds replayed by the last restart
	gate     gateResult
}

// restart stops trusting b's memory: it records every job's
// acknowledged round and snapshot, then takes `reps` recovery samples.
// A sample starts the workload's recoveryPasses fresh brokers on the
// persisted state and times their LoadAll calls back to back, scaled
// to the reference speed (see gauge). A broker without a store is
// restarted from the snapshots it served, written into a snapshot
// store. The last
// restarted broker is gated: every acknowledged round is present and
// every snapshot is byte-identical to the one taken before the
// restart.
func restart(b *broker, reps int) (restartResult, error) {
	var res restartResult
	b.mu.Lock()
	specs := make(map[string]jobSpec, len(b.specs))
	for id, s := range b.specs {
		specs[id] = s
	}
	b.mu.Unlock()

	acked := make(map[string]int, len(specs))
	for id := range specs {
		n, err := nextRound(b.h, id)
		if err != nil {
			return res, err
		}
		acked[id] = n
	}
	kind := b.w.store
	if kind == storeFile {
		if err := b.srv.SaveAll(); err != nil {
			return res, err
		}
	}
	// Copy the state before the snapshot requests below write to it,
	// so WAL recovery still has its tail to replay.
	passes := max(1, b.w.recoveryPasses)
	// A WAL recovery writes (it folds the replayed tail into a fresh
	// snapshot), so every restart gets its own copy; a snapshot store's
	// LoadAll only reads, so its restarts share one.
	copies := 1
	if kind == storeWAL {
		copies = reps * passes
	}
	var dirs []string
	defer func() { removeState(dirs...) }()
	for r := 0; r < copies && kind != storeNone; r++ {
		d, err := newStateDir(b.w.name + "-restart")
		if err != nil {
			return res, err
		}
		dirs = append(dirs, d)
		if err := copyDir(b.dir, d); err != nil {
			return res, err
		}
	}
	// The copies' writeback is paid here, not inside a timed LoadAll.
	syscall.Sync()
	before := make(map[string][]byte, len(specs))
	for id := range specs {
		data, err := brokerSnapshot(b.h, id)
		if err != nil {
			return res, err
		}
		before[id] = data
	}
	if kind == storeNone {
		d, err := newStateDir(b.w.name + "-restart")
		if err != nil {
			return res, err
		}
		dirs = append(dirs, d)
		fs, err := server.NewFileStore(d)
		if err != nil {
			return res, err
		}
		for id, data := range before {
			if err := fs.Save(id, data); err != nil {
				return res, err
			}
		}
		kind = storeFile
	}

	var last *server.Server
	g := newGauge(1)
	for r := 0; r < reps; r++ {
		srvs := make([]*server.Server, passes)
		for p := range srvs {
			st, err := openStore(kind, dirs[min(r*passes+p, len(dirs)-1)], nil)
			if err != nil {
				return res, err
			}
			srvs[p] = newServer(st)
		}
		runtime.GC() // the previous sample's garbage is not this one's cost
		start := time.Now()
		for _, srv := range srvs {
			if err := srv.LoadAll(); err != nil {
				return res, fmt.Errorf("restart: %w", err)
			}
		}
		t := time.Since(start).Seconds() / float64(passes)
		res.recovery = append(res.recovery, t/g.step().wall)
		if last != nil {
			closeStore(last)
		}
		for _, srv := range srvs[:passes-1] {
			closeStore(srv)
		}
		last = srvs[passes-1]
	}
	defer closeStore(last)
	res.replayed = counter(last, "cdt_wal_replayed_rounds_total")
	h := last.Handler()
	for id, n := range acked {
		res.gate.checks++
		got, err := nextRound(h, id)
		if err != nil {
			res.gate.fail("after restart: %v", err)
		} else if got != n {
			res.gate.fail("after restart job %s resumes at round %d, acknowledged %d", id, got, n-1)
		}
	}
	res.gate.add(gateJobs(h, specs, before))
	return res, nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// counter sums a metric family of srv's registry, read through the
// program's own Metrics().Snapshot().
func counter(srv *server.Server, name string) float64 {
	var v float64
	for k, x := range srv.Metrics().Snapshot() {
		if k == name || (len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{') {
			v += x
		}
	}
	return v
}
