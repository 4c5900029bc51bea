package main

import (
	"fmt"
	"sort"
)

// The metrics a run emits, with their units: an untraced run emits
// every end-to-end metric, a traced run every per-layer one.
// BENCHMARK.json names exactly these (the self-tests check it).
var (
	endToEndNames = []string{
		"setup_s", "throughput_rps", "rounds_per_s", "p50_ms", "ok_frac", "recovery_s", "live_heap_mb",
	}
	perLayerNames = []string{
		"p99_ms", "advance_p99_ms", "read_p99_ms",
		"server.request_us", "server.fixed_us", "server.residual_us",
		"server.resp_bytes_per_req", "server.encode_us",
		"engine.pool_acquire_ns", "engine.shed_frac",
		"core.round_us", "core.round_observed_us", "core.ucb_snapshot_us",
		"roundlog.encode_us_per_round", "roundlog.bytes_per_round",
		"telemetry.record_ns",
		"tracing.spans_per_req", "tracing.span_ns",
		"store.wal_append_us", "store.snapshot_save_us", "store.write_bytes_per_round",
		"store.compactions_per_kround", "store.replayed_rounds",
		"session.save_us",
		"process.allocs_per_req", "process.alloc_bytes_per_req", "process.gc_cpu_frac",
		"loadgen.lag_p99_ms",
		"ledger.attributed_us", "ledger.predicted_rps", "ledger.measured_rps",
		"bench.trace_overhead_frac", "failed_frac", "events.dropped",
	}
	metricUnits = map[string]string{
		"setup_s": "s", "throughput_rps": "1/s", "rounds_per_s": "1/s",
		"p50_ms": "ms", "ok_frac": "frac", "recovery_s": "s", "live_heap_mb": "MB",

		"p99_ms": "ms", "advance_p99_ms": "ms", "read_p99_ms": "ms",
		"server.request_us": "us", "server.fixed_us": "us", "server.residual_us": "us",
		"server.resp_bytes_per_req": "B", "server.encode_us": "us",
		"engine.pool_acquire_ns": "ns", "engine.shed_frac": "frac",
		"core.round_us": "us", "core.round_observed_us": "us", "core.ucb_snapshot_us": "us",
		"roundlog.encode_us_per_round": "us", "roundlog.bytes_per_round": "B",
		"telemetry.record_ns":   "ns",
		"tracing.spans_per_req": "count", "tracing.span_ns": "ns",
		"store.wal_append_us": "us", "store.snapshot_save_us": "us", "store.write_bytes_per_round": "B",
		"store.compactions_per_kround": "count", "store.replayed_rounds": "count",
		"session.save_us":        "us",
		"process.allocs_per_req": "count", "process.alloc_bytes_per_req": "B", "process.gc_cpu_frac": "frac",
		"loadgen.lag_p99_ms":   "ms",
		"ledger.attributed_us": "us", "ledger.predicted_rps": "1/s", "ledger.measured_rps": "1/s",
		"bench.trace_overhead_frac": "frac", "failed_frac": "frac", "events.dropped": "count",
	}
)

// metricSet collects one run's metrics.
type metricSet map[string]metric

// put records a declared metric in its declared unit.
func (m metricSet) put(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("undeclared metric " + name) // a bug in this file's lists
	}
	m[name] = metric{Value: v, Unit: unit}
}

// putTail records the q-quantile of xs, refusing a percentile the
// sample cannot support.
func (m metricSet) putTail(name string, xs []float64, q float64) error {
	if !tailSupported(len(xs), q) {
		return fmt.Errorf("%s: %d samples cannot support the %g quantile", name, len(xs), q)
	}
	m.put(name, quantile(xs, q))
	return nil
}

// check reports a run that did not emit exactly the named metrics.
func (m metricSet) check(names []string) error {
	var missing []string
	for _, n := range names {
		if _, ok := m[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 || len(m) != len(names) {
		sort.Strings(missing)
		return fmt.Errorf("run emitted %d metrics, want %d; missing %v", len(m), len(names), missing)
	}
	return nil
}
