// Package metrics is the zero-dependency instrumentation layer of the
// supervision service (DESIGN.md, design decision D10). The hot path —
// pipeline enqueue/dequeue, supervisor stages, chat broadcast, journal
// append — records into atomic counters, gauges and fixed-bucket
// histograms; nothing on the observation path allocates or takes a
// lock. The cold path exposes the same registry two ways: the
// Prometheus text exposition format over HTTP (WritePrometheus /
// Handler) and a structured Snapshot that the stats analyzer folds into
// the instructor report.
//
// The package deliberately reimplements the tiny subset of a metrics
// client the service needs instead of importing one: the repo's
// constraint is stdlib-only, and the subset is small — monotonic
// counters, set-point gauges (plus pull-time gauge functions for values
// like queue depth that already live in another subsystem), and latency
// histograms with fixed exponential bounds from which p50/p95/p99 are
// extracted by linear interpolation within the winning bucket.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the metric family type.
type Kind uint8

// Family kinds, matching the Prometheus type names.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind as the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing value. The zero value is ready
// to use; counters obtained from a Registry are also exported.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must not be negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bound distribution of int64 observations. Bounds
// are cumulative upper limits; observations above the last bound land
// in the implicit +Inf bucket. Observe is lock-free and allocation-free:
// a binary search over the (immutable) bounds and three atomic adds.
type Histogram struct {
	bounds []int64        // sorted upper bounds
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Int64
	count  atomic.Int64
	// scale converts raw observed units to exposition units (duration
	// histograms observe nanoseconds and expose seconds: scale 1e-9).
	scale float64
}

// NewHistogram builds a free-standing histogram (Registries build their
// own). Bounds must be sorted ascending; scale 0 means 1.
func NewHistogram(bounds []int64, scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
		scale:  scale,
	}
}

// DefDurationBounds are the default latency bounds: 1µs to ~8.6s,
// doubling — 24 buckets covering a fast parse-cache hit through a
// badly overloaded queue.
func DefDurationBounds() []int64 {
	bounds := make([]int64, 24)
	v := int64(time.Microsecond)
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a latency sample.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the latency from start to now. It is a
// wall-clock convenience: clock-injected callers must pair their own
// clock's Now/Since with ObserveDuration instead, or virtual-time runs
// will record wall latencies.
//
//semalint:allow injectedclock: wall-clock convenience API by contract; clock-injected code uses ObserveDuration
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations (raw units).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile extracts the q-quantile (0 < q <= 1) from the buckets by
// linear interpolation between the winning bucket's bounds; values in
// the +Inf bucket report the last finite bound (an underestimate, the
// standard conservative convention for bucketed quantiles).
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			upper := int64(math.MaxInt64)
			if i < len(h.bounds) {
				upper = h.bounds[i]
			} else if len(h.bounds) > 0 {
				return h.bounds[len(h.bounds)-1]
			}
			lower := int64(0)
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + int64(frac*float64(upper-lower))
		}
		cum += n
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// series is one exported time series: a family member with a fixed
// label set and exactly one of the value holders.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	fn      func() int64 // a GaugeFunc or CounterFunc series
	hist    *Histogram
}

// value reads a counter or gauge series.
func (s *series) value() int64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.counter != nil:
		return s.counter.Value()
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return 0
}

func (s *series) labelKey() string { return labelKey(s.labels) }

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// family groups all series of one metric name.
type family struct {
	name, help string
	kind       Kind
	series     []*series
	byLabel    map[string]*series
}

// Registry holds the service's metric families. Registration is
// idempotent — asking for an existing (name, labels) series returns the
// same underlying metric, so packages can declare what they need
// without coordinating — but re-registering a name with a different
// kind panics (a programming error, like a duplicate flag).
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order, for stable output
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	if err := checkName(name); err != nil {
		panic(err)
	}
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLabel: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

func (f *family) get(labels []Label) (*series, bool) {
	key := labelKey(labels)
	if s := f.byLabel[key]; s != nil {
		return s, true
	}
	for _, l := range labels {
		if err := checkName(l.Name); err != nil {
			panic(err)
		}
	}
	cp := make([]Label, len(labels))
	copy(cp, labels)
	s := &series{labels: cp}
	f.byLabel[key] = s
	f.series = append(f.series, s)
	return s, false
}

// Counter registers (or returns) the counter series name{labels...}.
// Panics if the series was registered as a CounterFunc.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, KindCounter).get(labels)
	if !ok {
		s.counter = &Counter{}
	}
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %s registered as a counter func, requested as a counter", name))
	}
	return s.counter
}

// CounterFunc registers a pull-time counter, the counter twin of
// GaugeFunc: fn is called at scrape and snapshot time and must never
// decrease. It exports totals another subsystem already keeps (parse-
// cache hits, suggestion calls). As with GaugeFunc, the first
// registration of a series wins.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, existed := r.family(name, help, KindCounter).get(labels)
	if existed {
		if s.fn == nil {
			panic(fmt.Sprintf("metrics: %s registered as a counter, requested as a counter func", name))
		}
		return
	}
	s.fn = fn
}

// Gauge registers (or returns) the gauge series name{labels...}.
// Panics if the series was registered as a GaugeFunc — the two forms
// cannot share a series, and a nil return would only crash later, far
// from the registration mistake.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, KindGauge).get(labels)
	if !ok {
		s.gauge = &Gauge{}
	}
	if s.gauge == nil {
		panic(fmt.Sprintf("metrics: %s registered as a gauge func, requested as a gauge", name))
	}
	return s.gauge
}

// GaugeFunc registers a pull-time gauge: fn is called at scrape and
// snapshot time. Useful for values another subsystem already maintains
// (queue depth, store sizes). The first registration of a series wins;
// re-registering is a no-op — series fields are set exactly once,
// under the registry lock, before the series is visible to a scrape,
// which is what makes the lock-free scrape reads safe.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, existed := r.family(name, help, KindGauge).get(labels)
	if existed {
		if s.fn == nil {
			// A set-point gauge already owns the series; silently
			// discarding fn would leave the scrape reading a value
			// nobody updates.
			panic(fmt.Sprintf("metrics: %s registered as a gauge, requested as a gauge func", name))
		}
		return
	}
	s.fn = fn
}

// DurationHistogram registers (or returns) a latency histogram that
// observes nanoseconds and exposes seconds, with the default
// exponential bounds.
func (r *Registry) DurationHistogram(name, help string, labels ...Label) *Histogram {
	return r.HistogramWithBounds(name, help, DefDurationBounds(), 1e-9, labels...)
}

// HistogramWithBounds registers (or returns) a histogram with explicit
// bounds and exposition scale. Re-registering an existing series with
// different bounds or scale panics, like every other registration
// conflict: silently handing back the first registrant's histogram
// would bucket the new caller's observations against the wrong bounds.
func (r *Registry) HistogramWithBounds(name, help string, bounds []int64, scale float64, labels ...Label) *Histogram {
	if scale == 0 {
		scale = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, KindHistogram).get(labels)
	if !ok {
		s.hist = NewHistogram(bounds, scale)
		return s.hist
	}
	if s.hist.scale != scale || !equalBounds(s.hist.bounds, bounds) {
		panic(fmt.Sprintf("metrics: %s re-registered with different bounds or scale", name))
	}
	return s.hist
}

func equalBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkName enforces the Prometheus metric/label name charset.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("metrics: empty name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("metrics: invalid name %q", name)
		}
	}
	return nil
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label{}, labels...), extra...)
	}
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	// 9 significant digits hide the float dust of bound×scale products
	// (1000ns × 1e-9 would otherwise print 1.0000000000000002e-06).
	return fmt.Sprintf("%.9g", v)
}

// familyView is a lock-free-readable copy of one family: name, kind
// and a snapshot of the series slice. The series *pointers* stay live
// (their values are atomics, safe to read unlocked), but the slice
// itself must be copied under the registry lock — get() appends to it
// on late registrations, and scraping a slice mid-append is a race.
type familyView struct {
	name, help string
	kind       Kind
	series     []*series
}

func (r *Registry) view() []familyView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familyView, len(r.families))
	for i, f := range r.families {
		out[i] = familyView{name: f.name, help: f.help, kind: f.kind,
			series: append([]*series(nil), f.series...)}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one HELP and TYPE line per family,
// then every series; histograms expand to cumulative _bucket series
// with le labels plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.view() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case KindCounter, KindGauge:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", s.value())
			case KindHistogram:
				h := s.hist
				var cum int64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, s.labels, L("le", formatFloat(float64(bound)*h.scale)))
					fmt.Fprintf(&b, " %d\n", cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, s.labels, L("le", "+Inf"))
				fmt.Fprintf(&b, " %d\n", cum)
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %s\n", formatFloat(float64(h.Sum())*h.scale))
				// _count is the cumulative bucket total, NOT h.Count():
				// a concurrent Observe between the bucket loads above
				// and here would otherwise emit _count > +Inf bucket,
				// which the exposition format forbids.
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry at GET /metrics (any path).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// SeriesSnapshot is one series' state at snapshot time.
type SeriesSnapshot struct {
	Labels []Label
	// Value carries counters and gauges.
	Value int64
	// Count/Sum/quantiles carry histograms; quantiles are in the
	// histogram's raw units (nanoseconds for duration histograms).
	Count         int64
	Sum           int64
	P50, P95, P99 int64
}

// FamilySnapshot is one family's state at snapshot time.
type FamilySnapshot struct {
	Name, Help string
	Kind       Kind
	Series     []SeriesSnapshot
}

// Snapshot is a structured point-in-time copy of the registry, sorted
// by family name — the form the stats analyzer embeds in the
// instructor report.
type Snapshot struct {
	Time     time.Time
	Families []FamilySnapshot
}

// Snapshot captures the registry.
func (r *Registry) Snapshot() Snapshot {
	//semalint:allow injectedclock: the snapshot timestamp is operator-facing report metadata, wall-clock by design
	snap := Snapshot{Time: time.Now()}
	for _, f := range r.view() {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		for _, s := range f.series {
			ss := SeriesSnapshot{Labels: s.labels}
			switch f.kind {
			case KindCounter, KindGauge:
				ss.Value = s.value()
			case KindHistogram:
				ss.Count = s.hist.Count()
				ss.Sum = s.hist.Sum()
				ss.P50 = s.hist.Quantile(0.50)
				ss.P95 = s.hist.Quantile(0.95)
				ss.P99 = s.hist.Quantile(0.99)
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	sort.Slice(snap.Families, func(i, j int) bool {
		return snap.Families[i].Name < snap.Families[j].Name
	})
	return snap
}
