package eval

import (
	"math/rand"
	"sync"
	"time"

	"semagent/internal/ontology"
)

// E10Config sizes experiment E10 (DESIGN.md §4): the snapshot read
// path swept over worker counts. This is the knowledge-layer
// measurement behind design decision D8 — the room-sharded pipeline
// (D7) made every worker contend on one ontology RWMutex and re-run a
// map-allocating Dijkstra per keyword pair; the immutable compiled
// snapshot removes both.
type E10Config struct {
	// Workers lists the concurrency levels to sweep (default 1, 4, 16).
	Workers []int `json:"workers"`
	// QueriesPerWorker is each worker's Related+Distance query count
	// (default 20000).
	QueriesPerWorker int `json:"queries_per_worker"`
	// Seed drives the pair selection.
	Seed int64 `json:"seed"`
}

// E10Arm is one measured worker count.
type E10Arm struct {
	Workers       int
	Queries       int
	Elapsed       time.Duration
	NsPerQuery    float64
	QueriesPerSec float64
}

// E10Result holds the sweep, and is emitted as JSON by `evalharness
// -exp E10 -json` so successive PRs can diff the perf trajectory
// mechanically.
type E10Result struct {
	Config E10Config
	// Snapshot describes the compiled form being measured.
	Snapshot ontology.SnapshotStats
	Arms     []E10Arm
}

// e10Pair is one precomputed query of the E10 workload.
type e10Pair struct{ a, b string }

// RunE10 sweeps the snapshot read path over a precomputed pair stream.
// The workload mixes within-threshold pairs (table hits), distant pairs
// (Dijkstra fallback) and pairs with inflected spellings (fold path),
// mirroring what the Semantic Agent actually asks per sentence.
func RunE10(cfg E10Config) (*E10Result, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 4, 16}
	}
	if cfg.QueriesPerWorker <= 0 {
		cfg.QueriesPerWorker = 20000
	}

	onto := ontology.BuildCourseOntology()
	pairs := e10Pairs(onto, cfg.Seed)
	snap := onto.Snapshot()
	res := &E10Result{Config: cfg, Snapshot: snap.Stats()}
	for _, workers := range cfg.Workers {
		res.Arms = append(res.Arms, runE10Arm(workers, cfg.QueriesPerWorker, pairs, func(p e10Pair) {
			if !snap.Related(p.a, p.b, 0) {
				snap.Distance(p.a, p.b)
			}
		}))
	}
	return res, nil
}

// e10Pairs precomputes the query stream: every (concept, feature) and
// (concept, concept) combination the generator would phrase, plus
// inflected variants, shuffled deterministically.
func e10Pairs(onto *ontology.Ontology, seed int64) []e10Pair {
	rng := rand.New(rand.NewSource(seed + 10))
	items := onto.Items()
	var pairs []e10Pair
	for i, a := range items {
		for _, b := range items[i+1:] {
			pairs = append(pairs, e10Pair{a.Name, b.Name})
		}
	}
	// Inflected spellings exercise the fold-on-miss lookup path.
	pairs = append(pairs,
		e10Pair{"stacks", "pops"},
		e10Pair{"trees", "pushed"},
		e10Pair{"queues", "enqueued"},
	)
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

func runE10Arm(workers, perWorker int, pairs []e10Pair, query func(e10Pair)) E10Arm {
	arm := E10Arm{Workers: workers, Queries: workers * perWorker}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				query(pairs[(w+i)%len(pairs)])
			}
		}(w)
	}
	wg.Wait()
	arm.Elapsed = time.Since(start)
	if arm.Elapsed > 0 {
		arm.NsPerQuery = float64(arm.Elapsed.Nanoseconds()) / float64(arm.Queries)
		arm.QueriesPerSec = float64(arm.Queries) / arm.Elapsed.Seconds()
	}
	return arm
}
