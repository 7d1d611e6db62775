// Package metrics stands in for the real metrics registry: the
// metricnames fixture only needs registration methods whose first
// argument is the metric name.
package metrics

// Registry registers metric families.
type Registry struct{}

// Counter is a monotone counter.
type Counter struct{}

// Histogram is a bucketed distribution.
type Histogram struct{}

// Label is one name=value pair.
type Label struct{ Name, Value string }

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter { return nil }

// CounterFunc registers a callback-backed counter.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {}

// Gauge registers (or returns) a gauge, stored as a counter here.
func (r *Registry) Gauge(name, help string, labels ...Label) *Counter { return nil }

// GaugeFunc registers a callback-backed gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {}

// DurationHistogram registers a latency histogram.
func (r *Registry) DurationHistogram(name, help string, labels ...Label) *Histogram { return nil }

// HistogramWithBounds registers a histogram with explicit bounds.
func (r *Registry) HistogramWithBounds(name, help string, bounds []int64, scale float64, labels ...Label) *Histogram {
	return nil
}
