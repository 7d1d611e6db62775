// Package metricuser is the metricnames fixture: metric names are a
// scrape-time API, so they must be literal, grammatical and carry the
// module prefix at every registration site.
package metricuser

import (
	"fmt"

	"metrics"
)

const goodName = "semagent_requests_total"

// Registered uses literal, prefixed, grammatical names — constants
// fold, so a named const is as good as a literal.
func Registered(r *metrics.Registry) {
	r.Counter("semagent_messages_total", "messages supervised")
	r.Gauge(goodName, "requests in flight")
}

// Computed builds the name at runtime.
func Computed(r *metrics.Registry, room string) {
	r.Counter(fmt.Sprintf("semagent_%s_total", room), "per-room") // want `must be a compile-time constant string`
}

// BadCharset uses a name outside the Prometheus grammar.
func BadCharset(r *metrics.Registry) {
	r.DurationHistogram("semagent latency seconds", "latency") // want `does not match the Prometheus grammar`
}

// WrongPrefix forgets the module prefix.
func WrongPrefix(r *metrics.Registry) {
	r.Counter("chat_messages_total", "messages")         // want `lacks the "semagent_" prefix`
	r.CounterFunc("parse_cache_hits_total", "hits", nil) // want `lacks the "semagent_" prefix`
}

// Bridged re-exports another system's series name under the escape
// hatch.
func Bridged(r *metrics.Registry) {
	//semalint:allow metricnames: fixture stands in for a bridge re-exporting upstream names
	r.Counter("upstream_queue_depth", "bridged series")
}
