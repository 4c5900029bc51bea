// Package metrics is the dependency-free observability core of the
// CDT stack: named counters, gauges, and fixed-bucket histograms with
// lock-free hot paths, collected in a Registry that exposes them in
// Prometheus text format (WritePrometheus) and as a flat snapshot for
// tests (Snapshot). Histogram is the one histogram implementation; a
// rolling Window is a ring of them, and HistogramSnapshot carries the
// one merge and quantile rule.
//
// Design rules:
//
//   - Recording is wait-free: Counter.Add, Gauge.Set, and
//     Histogram.Observe touch only atomics, never the registry lock.
//     The registry lock is taken only when a series is first resolved
//     (Counter/Gauge/Histogram lookups) and at scrape time.
//   - Registration is idempotent: asking for the same name + label set
//     returns the same instrument, so call sites never coordinate.
//     Re-registering a name with a different kind or bucket layout
//     panics — that is a programming error, not a runtime condition.
//   - The exposition is deterministic: families are sorted by name and
//     series by label signature, so scrapes (and golden tests) are
//     stable.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing count.
type Counter struct {
	n atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instrument inside a family. Every field
// except fn is set before the series is published into its family's
// map (under the registry lock) and never mutated again; fn is an
// atomic pointer because GaugeFunc re-registration replaces it while
// scrapes read it without the lock.
type series struct {
	labels []Label
	sig    string // rendered {a="b",...} signature, "" when unlabeled

	c  *Counter
	g  *Gauge
	fn atomic.Pointer[func() float64]
	h  *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name, help string
	kind       kind
	buckets    []float64 // histograms only
	series     map[string]*series
}

// Registry collects instruments. The zero value is not usable; create
// with New. A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use. help is recorded on first
// registration of the family.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.resolve(name, help, kindCounter, nil, labels)
	return s.c
}

// Gauge returns the gauge registered under name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.resolve(name, help, kindGauge, nil, labels)
	return s.g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — for values another component already tracks (pool occupancy,
// live-job counts) that would otherwise need shadow accounting.
// Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.resolve(name, help, kindGaugeFunc, nil, labels)
	s.fn.Store(&fn)
}

// Histogram returns the histogram registered under name with the given
// labels. buckets are ascending upper bounds; nil or empty means
// DefLatencyBuckets. Every series of one family shares the first
// registration's bucket layout.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	s := r.resolve(name, help, kindHistogram, buckets, labels)
	return s.h
}

// resolve finds or creates the (family, series) pair.
func (r *Registry) resolve(name, help string, k kind, buckets []float64, labels []Label) *series {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabel(l.Name)
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		if k == kindHistogram {
			f.buckets = validBuckets(name, buckets)
		}
		r.families[name] = f
	}
	// GaugeFunc and Gauge share an exposition type; everything else
	// must re-register as what it was.
	sameKind := f.kind == k ||
		(f.kind == kindGauge && k == kindGaugeFunc) || (f.kind == kindGaugeFunc && k == kindGauge)
	if !sameKind {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, k, f.kind))
	}
	if k == kindHistogram && !equalBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("metrics: %s re-registered with different buckets", name))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...), sig: sig}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge, kindGaugeFunc:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{}
			s.h.init(&f.buckets)
		}
		f.series[sig] = s
	}
	return s
}

// value returns the series' instantaneous scalar (counters and
// gauges; histograms are expanded by the caller).
func (s *series) value() float64 {
	if s.c != nil {
		return float64(s.c.Value())
	}
	if fn := s.fn.Load(); fn != nil {
		return (*fn)()
	}
	return s.g.Value()
}

// Snapshot flattens every series into name{labels} → value, with
// histograms expanded exactly like the exposition (see samples). It
// is the test-facing read API.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	emit := func(name, sig string, v float64) { out[name+sig] = v }
	for _, f := range r.sortedFamilies() {
		for _, s := range f.series {
			f.samples(s, emit)
		}
	}
	return out
}

// samples emits each exposition sample of one series: its value for a
// counter or gauge; for a histogram the cumulative name_bucket{le}
// series in bound order (+Inf last), then name_sum and name_count.
func (f *family) samples(s *series, emit func(name, sig string, v float64)) {
	if f.kind != kindHistogram {
		emit(f.name, s.sig, s.value())
		return
	}
	snap := s.h.Snapshot()
	for i, c := range snap.Cumulative() {
		le := "+Inf"
		if i < len(f.buckets) {
			le = formatFloat(f.buckets[i])
		}
		emit(f.name+"_bucket", withLabel(s.labels, "le", le), float64(c))
	}
	emit(f.name+"_sum", s.sig, snap.Sum)
	emit(f.name+"_count", s.sig, float64(snap.Count))
}

// familyView is a scrape-time copy of one family: the immutable
// family metadata plus its series snapshotted (and sorted) while the
// registry lock was held. Scrapes iterate these slices after the lock
// is released, so a concurrent resolve() inserting a first-seen label
// combination never races a map iteration.
type familyView struct {
	*family
	series []*series
}

func (r *Registry) sortedFamilies() []familyView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familyView, 0, len(r.families))
	for _, f := range r.families {
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })
		out = append(out, familyView{family: f, series: ss})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// labelSignature renders the {a="b",c="d"} suffix, labels sorted by
// name, values escaped. Empty for no labels.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel renders the signature of labels plus one extra pair (the
// histogram le label).
func withLabel(labels []Label, name, value string) string {
	extra := append(append([]Label(nil), labels...), Label{Name: name, Value: value})
	return labelSignature(extra)
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// mustValidName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

// mustValidLabel enforces the label-name charset [a-zA-Z_][a-zA-Z0-9_]*.
func mustValidLabel(name string) {
	if !validName(name, false) {
		panic(fmt.Sprintf("metrics: invalid label name %q", name))
	}
}

func validName(name string, allowColon bool) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
