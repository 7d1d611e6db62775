// Command classbench is the repository's wire-to-verdict benchmark. It
// boots the production chat server stack on a workload's data dir,
// drives it over TCP loopback with two learners (one per room) on the
// binary wire, and reports setup time, capacity, feedback and echo
// latency, delivery and live heap. With -trace 1 it alternates untraced
// and traced rounds and reports the per-layer split instead. Every run
// checks the agents' verdicts against a reference supervisor.
//
// Usage, from the repository root:
//
//	bash classbench/run.sh --workload week-one --seed 1 --seconds 60 --trace 0
//
// The last line of standard output is the result as one JSON object;
// the lines before it are the workload manifest and readable tables.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"capacity_msgs_s", "msgs/s"},
	{"echo_p50_ms", "ms"},
	{"delivered_frac", "fraction"},
	{"heap_live_mb", "MiB"},
}

// tails are printed with the end-to-end metrics but are not in the
// result line: on a small shared host their run-to-run spread is wider
// than any bound a regression check could use (README.md). The
// feedback median is among them because on semester it falls where
// the fast replies give way to the slow corrections.
var tails = []metricDef{
	{"feedback_p50_ms", "ms"},
	{"feedback_p99_ms", "ms"},
	{"echo_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"corpus.suggest_p50_us", "us"},
	{"corpus.suggest_p99_us", "us"},
	{"corpus.suggest_calls", "count"},
	{"corpus.suggest_share", "fraction"},
	{"corpus.add_us", "us"},
	{"corpus.records_start", "count"},
	{"corpus.records_end", "count"},
	{"linkgrammar.parse_us", "us"},
	{"linkgrammar.parses_per_msg", "count"},
	{"linkgrammar.cache_hit_ratio", "fraction"},
	{"angel.check_self_us", "us"},
	{"semantic.analyze_us", "us"},
	{"qa.ask_us", "us"},
	{"ontology.extract_terms_us", "us"},
	{"stats.record_us", "us"},
	{"journal.records_per_msg", "count"},
	{"journal.fsyncs", "count"},
	{"journal.checkpoints", "count"},
	{"journal.append_p99_us", "us"},
	{"journal.fsync_p99_ms", "ms"},
	{"pipeline.queue_wait_p50_ms", "ms"},
	{"pipeline.queue_wait_p99_ms", "ms"},
	{"pipeline.batch_size_mean", "count"},
	{"pipeline.blocked", "count"},
	{"chat.say_p50_us", "us"},
	{"chat.broadcast_p50_us", "us"},
	{"chat.fanout_per_msg", "count"},
	{"gen.late_p99_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.span_coverage", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("classbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository checkout the benchmark runs in; it writes only under ROOT/.bench_build")
	name := fs.String("workload", "", "workload: week-one, semester or fluent")
	seed := fs.Int64("seed", 1, "workload seed: the learners' lines are drawn from it")
	seconds := fs.Float64("seconds", 20, "run length at the seed commit's speed; sets the number of rounds")
	trace := fs.Int("trace", 0, "1: alternate untraced and traced rounds, report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*name)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = errors.New("--trace must be 0 or 1")
	}
	if err == nil && *seconds <= 0 {
		err = errors.New("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "classbench:", err)
		return 2
	}
	return run(options{
		out: filepath.Join(*root, ".bench_build"), spec: sp, seed: *seed, seconds: *seconds,
		trace: *trace == 1, history: historyMessages,
		drain: 30 * time.Second,
	}, stdout, stderr)
}

// run benchmarks o, prints the readable report and then the result
// line to stdout, and returns the exit code: non-zero when the run
// fails or its correctness gate does.
func run(o options, stdout, stderr io.Writer) int {
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "classbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "classbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench makes the run's rounds, gates their verdicts, prints the
// manifest and tables to w, and returns the result. An untraced run
// reports each end-to-end metric as its median over the rounds. A
// traced run alternates untraced and traced rounds and reports each
// per-layer metric as its median over the traced rounds.
func bench(o options, w io.Writer) (*result, error) {
	p := makePlan(o.spec, o.seed)
	fixture := ""
	if o.spec.Semester {
		var err error
		if fixture, err = semesterFixture(o.out, o.history); err != nil {
			return nil, err
		}
	}
	start, err := fixtureCorpus(fixture)
	if err != nil {
		return nil, fmt.Errorf("load the fixture corpus: %w", err)
	}
	ref, err := newReference(p, start)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(o.out, "runs", fmt.Sprintf("%s-%d", o.spec.Name, os.Getpid()))
	defer os.RemoveAll(base)

	var untraced, traced []*roundResult
	var problems []string
	var tr *tracer
	round := func(i int, tr *tracer) (*roundResult, error) {
		r, err := runRound(o, p, fixture, filepath.Join(base, fmt.Sprint(i)), tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		problems = append(problems, r.problems...)
		problems = append(problems, gate(ref, r.trackers, r.corpus, 10)...)
		r.corpus = nil
		return r, nil
	}
	n := o.spec.rounds(o.seconds)
	if !o.trace {
		for i := 0; i < n; i++ {
			r, err := round(i, nil)
			if err != nil {
				return nil, err
			}
			r.trackers = nil
			untraced = append(untraced, r)
		}
	} else {
		for i := 0; i < max(1, n/2); i++ {
			u, err := round(2*i, nil)
			if err != nil {
				return nil, err
			}
			tr = newTracer()
			t, err := round(2*i+1, tr)
			if err != nil {
				return nil, err
			}
			// The traced supervisor must reach the same verdicts and
			// record the same lines.
			problems = append(problems, compareVerdicts(verdictLog(u.trackers), verdictLog(t.trackers), 10)...)
			problems = append(problems, compareStores(u, t)...)
			u.trackers, t.trackers = nil, nil
			untraced, traced = append(untraced, u), append(traced, t)
		}
	}

	med := func(rs []*roundResult, f func(*roundResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	res := &result{Metrics: make(map[string]metricValue)}
	for _, r := range append(append([]*roundResult(nil), untraced...), traced...) {
		res.Attempted += r.attempted()
		res.Failed += r.failed()
	}
	values := make(map[string]float64)
	defs := endToEnd
	if !o.trace {
		values["setup_s"] = med(untraced, func(r *roundResult) float64 { return r.setup.Seconds() })
		values["capacity_msgs_s"] = med(untraced, (*roundResult).capacity)
		values["feedback_p50_ms"] = med(untraced, func(r *roundResult) float64 { return ms(quantile(r.open.feedback, 0.50)) })
		values["feedback_p99_ms"] = med(untraced, func(r *roundResult) float64 { return ms(quantile(r.open.feedback, 0.99)) })
		values["echo_p50_ms"] = med(untraced, func(r *roundResult) float64 { return ms(quantile(r.open.echo, 0.50)) })
		values["echo_p99_ms"] = med(untraced, func(r *roundResult) float64 { return ms(quantile(r.open.echo, 0.99)) })
		values["delivered_frac"] = 1 - float64(res.Failed)/float64(res.Attempted)
		values["heap_live_mb"] = med(untraced, func(r *roundResult) float64 { return r.heapLiveMB })
	} else {
		defs = perLayer
		for _, d := range perLayer {
			values[d.name] = med(traced, func(r *roundResult) float64 { return r.layer[d.name] })
		}
		if c := med(untraced, (*roundResult).capacity); c > 0 {
			values["trace.overhead_frac"] = 1 - med(traced, (*roundResult).capacity)/c
		}
	}
	res.Correct = len(problems) == 0
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}

	writeManifest(w, o, p, untraced, traced)
	writeRounds(w, untraced, traced)
	fmt.Fprintf(w, "%-30s %14s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %14.4f  %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if !o.trace {
		for _, d := range tails {
			fmt.Fprintf(w, "%-30s %14.4f  %s  (not in the result line)\n", d.name, values[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "%-30s %14.4f  %s  (not in the result line)\n", "failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "fraction")
	if o.trace {
		fmt.Fprintf(w, "capacity: untraced %.1f msgs/s, traced %.1f msgs/s, tracing overhead %.1f%%\n",
			med(untraced, (*roundResult).capacity), med(traced, (*roundResult).capacity), 100*values["trace.overhead_frac"])
		fmt.Fprintln(w, "per-layer table of the last traced round:")
		tr.writeTable(w)
		dir := filepath.Join(o.out, "trace")
		path := filepath.Join(dir, o.spec.Name+".spans.jsonl")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.dump(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "span dump of the last traced round: %s\n", path)
	}
	for _, pr := range problems {
		fmt.Fprintln(w, "CORRECTNESS FAILURE:", pr)
	}
	return res, nil
}

// writeRounds prints one line per round.
func writeRounds(w io.Writer, untraced, traced []*roundResult) {
	fmt.Fprintf(w, "%-8s %9s %10s %9s %9s %9s %9s %8s %8s %7s\n",
		"round", "setup_s", "msgs/s", "fb_p50", "fb_p99", "echo_p50", "echo_p99", "fb_n", "heap_mb", "failed")
	line := func(name string, r *roundResult) {
		fmt.Fprintf(w, "%-8s %9.4f %10.1f %9.3f %9.3f %9.3f %9.3f %8d %8.1f %7d\n", name,
			r.setup.Seconds(), r.capacity(),
			ms(quantile(r.open.feedback, 0.50)), ms(quantile(r.open.feedback, 0.99)),
			ms(quantile(r.open.echo, 0.50)), ms(quantile(r.open.echo, 0.99)),
			len(r.open.feedback), r.heapLiveMB, r.failed())
	}
	for i, r := range untraced {
		line(fmt.Sprintf("u%d", i), r)
	}
	for i, r := range traced {
		line(fmt.Sprintf("t%d", i), r)
	}
}

// compareVerdicts reports lines answered in both passes whose verdicts
// differ.
func compareVerdicts(a, b [][]string, limit int) []string {
	var bad []string
	for r := range a {
		for i := range a[r] {
			if i >= len(b[r]) || a[r][i] == "unanswered" || b[r][i] == "unanswered" || a[r][i] == b[r][i] {
				continue
			}
			if len(bad) < limit {
				bad = append(bad, fmt.Sprintf("room %d line %d: untraced verdict %q, traced %q", r, i, a[r][i], b[r][i]))
			}
		}
	}
	return bad
}
