package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the code must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// smoke runs the benchmark tiny, on a 300-message semester history,
// and returns its result line and the readable output before it.
func smoke(t *testing.T, workload string, trace bool) (result, string) {
	t.Helper()
	sp, err := specByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	o := options{
		out: filepath.Join(t.TempDir(), ".bench_build"), spec: sp, seed: 1, seconds: 0.2,
		trace: trace, history: 300, drain: 30 * time.Second,
	}
	if code := run(o, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	return res, out.String()
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s = %+v, want unit %q", d.name, m, d.unit)
		}
	}
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the server stack")
	}
	for _, w := range []string{"week-one", "fluent"} {
		res, out := smoke(t, w, false)
		checkMetrics(t, res, endToEnd)
		for _, d := range append(append([]metricDef(nil), endToEnd...), tails...) {
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` +[0-9.]+  ` + regexp.QuoteMeta(d.unit)).MatchString(out) {
				t.Errorf("%s: no readable line for %s with unit %s", w, d.name, d.unit)
			}
		}
	}
	res, _ := smoke(t, "semester", true)
	checkMetrics(t, res, perLayer)
	if res.Metrics["corpus.records_start"].Value != 300 {
		t.Errorf("semester started from %v records, want the 300-message history", res.Metrics["corpus.records_start"].Value)
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	for i, w := range f.Workloads {
		if i >= len(specs) || specs[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in code", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

func TestBadFlagsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "midterm"},
		{"-workload", "fluent", "-trace", "2"},
		{"-workload", "fluent", "-seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := cli(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
