package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"semagent/internal/workload"
)

// manifest states what a result was measured on: the workload and its
// store sizes, the stack's configuration, the hardware and the code.
type manifest struct {
	Workload      string       `json:"workload"`
	Seed          int64        `json:"seed"`
	Mix           workload.Mix `json:"mix"`
	StartStores   string       `json:"round_start_stores"`
	OpenRate      float64      `json:"open_rate_msgs_s"`
	OpenLines     int          `json:"open_lines_per_round"`
	ClosedLines   int          `json:"closed_lines_per_round"`
	ClosedWindow  int          `json:"closed_window_per_conn"`
	Connections   int          `json:"connections"`
	Rounds        []roundStore `json:"rounds"`
	Wire          string       `json:"wire"`
	Journal       string       `json:"journal"`
	Supervision   string       `json:"supervision"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	NumCPU        int          `json:"nproc"`
	CPUModel      string       `json:"cpu_model"`
	GoVersion     string       `json:"go_version"`
	Commit        string       `json:"commit"`
	BinarySHA256  string       `json:"binary_sha256"`
	RunSecondsArg float64      `json:"seconds"`
}

// roundStore is one round's corpus size at each phase boundary.
type roundStore struct {
	Traced            bool `json:"traced"`
	OpenStartRecords  int  `json:"open_start_records"`
	OpenEndRecords    int  `json:"open_end_records"`
	ClosedStartRecord int  `json:"closed_start_records"`
	ClosedEndRecords  int  `json:"closed_end_records"`
}

func writeManifest(w io.Writer, o options, p plan, untraced, traced []*roundResult) {
	m := manifest{
		Workload: o.spec.Name, Seed: o.seed, Mix: o.spec.Mix,
		StartStores:   "empty data dir",
		OpenRate:      o.spec.Rate,
		OpenLines:     p.Open.total(),
		ClosedLines:   p.Closed.total(),
		ClosedWindow:  window,
		Connections:   len(rooms),
		Wire:          "binary",
		Journal:       "group commit (20ms window), checkpoint at 4 MiB or 5 min",
		Supervision:   "async, batched, one learner in each of 2 rooms",
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		BinarySHA256:  binarySHA256(),
		RunSecondsArg: o.seconds,
	}
	if o.spec.Semester {
		m.StartStores = fmt.Sprintf("semester stores: %d-message generated history (seed %d)", o.history, historySeed)
	}
	for i, r := range append(append([]*roundResult(nil), untraced...), traced...) {
		m.Rounds = append(m.Rounds, roundStore{
			Traced:           i >= len(untraced),
			OpenStartRecords: r.open.recordsStart, OpenEndRecords: r.open.recordsEnd,
			ClosedStartRecord: r.closed.recordsStart, ClosedEndRecords: r.closed.recordsEnd,
		})
	}
	b, err := json.Marshal(m)
	if err != nil {
		fmt.Fprintln(w, "manifest:", err)
		return
	}
	fmt.Fprintf(w, "manifest: %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a plain source checkout has none; binary_sha256 identifies
// the code then).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// binarySHA256 identifies the code measured: the benchmark binary
// holds the program's code and the benchmark's.
func binarySHA256() string {
	key, err := binaryKey()
	if err != nil {
		return "unknown"
	}
	return key
}
