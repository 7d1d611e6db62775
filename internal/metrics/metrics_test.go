package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same series.
	if again := r.Counter("test_ops_total", "ops"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestCounterLabelsDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_shed_total", "shed", L("reason", "room"))
	b := r.Counter("test_shed_total", "shed", L("reason", "global"))
	if a == b {
		t.Fatal("different label sets returned the same series")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("label series share state")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("test_x_total", "x")
}

func TestCounterFuncVersusCounterPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_y_total", "y", func() int64 { return 1 })
	r.CounterFunc("test_y_total", "y", func() int64 { return 2 }) // first registration wins
	if got := r.Snapshot().Families[0].Series[0].Value; got != 1 {
		t.Fatalf("counter func value = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic asking for a counter func series as a counter")
		}
	}()
	r.Counter("test_y_total", "y")
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(DefDurationBounds(), 1e-9)
	// 1000 samples uniform in [1ms, 2ms): they straddle the 1.024ms
	// bound, so quantiles interpolate inside the covering buckets
	// (upper bound 2.048ms).
	for i := 0; i < 1000; i++ {
		h.ObserveDuration(time.Millisecond + time.Duration(i)*time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := time.Duration(h.Quantile(q))
		if got < 512*time.Microsecond || got > 2048*time.Microsecond {
			t.Fatalf("q%.2f = %v, want within the covering buckets (512µs, 2.048ms]", q, got)
		}
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %d < p50 %d", p99, p50)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]int64{10, 100}, 1)
	h.Observe(5000) // beyond the last bound: +Inf bucket
	if got := h.Quantile(0.99); got != 100 {
		t.Fatalf("quantile from +Inf bucket = %d, want last finite bound 100", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(DefDurationBounds(), 1e-9)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	h := r.DurationHistogram("test_seconds", "t")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.ObserveDuration(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("semagent_msgs_total", "messages", L("verdict", "correct")).Add(3)
	r.Counter("semagent_msgs_total", "messages", L("verdict", "syntax-error")).Add(1)
	r.Gauge("semagent_depth", "queue depth").Set(12)
	r.GaugeFunc("semagent_rooms", "active rooms", func() int64 { return 4 })
	r.CounterFunc("semagent_hits_total", "cache hits", func() int64 { return 7 })
	h := r.DurationHistogram("semagent_stage_seconds", "stage latency", L("stage", "angel"))
	for i := 0; i < 100; i++ {
		h.ObserveDuration(time.Duration(i) * 50 * time.Microsecond)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		`semagent_msgs_total{verdict="correct"} 3`,
		"semagent_depth 12",
		"semagent_rooms 4",
		"# TYPE semagent_hits_total counter",
		"semagent_hits_total 7",
		`semagent_stage_seconds_bucket{stage="angel",le="+Inf"} 100`,
		"semagent_stage_seconds_count{stage=\"angel\"} 100",
		"# TYPE semagent_stage_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	for name, input := range map[string]string{
		"bad name":       "2bad_name 1\n",
		"no value":       "metric_a\n",
		"bad value":      "metric_a one\n",
		"bad comment":    "# NOPE metric_a counter\n",
		"unknown type":   "# TYPE metric_a matrix\n",
		"bad label":      `metric_a{x="unterminated} 1` + "\n",
		"noncumulative":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"missing inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 7\n",
	} {
		if err := ValidateExposition(strings.NewReader(input)); err == nil {
			t.Errorf("%s: validator accepted %q", name, input)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b").Add(2)
	r.Gauge("a_depth", "a").Set(9)
	h := r.DurationHistogram("c_seconds", "c")
	h.ObserveDuration(3 * time.Millisecond)
	snap := r.Snapshot()
	if len(snap.Families) != 3 {
		t.Fatalf("families = %d, want 3", len(snap.Families))
	}
	// Sorted by name.
	for i, want := range []string{"a_depth", "b_total", "c_seconds"} {
		if snap.Families[i].Name != want {
			t.Fatalf("family[%d] = %s, want %s", i, snap.Families[i].Name, want)
		}
	}
	hs := snap.Families[2].Series[0]
	if hs.Count != 1 || hs.P50 <= 0 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if time.Since(snap.Time) > time.Minute {
		t.Fatal("snapshot time not set")
	}
}

func TestFormatFloat(t *testing.T) {
	if got := formatFloat(3); got != "3" {
		t.Fatalf("formatFloat(3) = %q", got)
	}
	if got := formatFloat(0.000001); got != "1e-06" {
		t.Fatalf("formatFloat(1e-6) = %q", got)
	}
	if formatFloat(math.Trunc(1e16)) == "" {
		t.Fatal("large float empty")
	}
}
