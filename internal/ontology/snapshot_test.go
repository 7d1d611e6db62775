package ontology

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSnapshotParityWithLockedPath cross-checks the compiled snapshot
// read path against the legacy locked read path over every item pair of
// the course ontology and of random graphs — the refactor must be a
// pure performance change.
func TestSnapshotParityWithLockedPath(t *testing.T) {
	check := func(t *testing.T, o *Ontology) {
		t.Helper()
		snap := o.Snapshot()
		locked := lockedReadPath{o}
		items := snap.Items()
		for i := 0; i < len(items); i++ {
			for j := i; j < len(items); j++ {
				a, b := items[i].Name, items[j].Name
				if ds, dl := snap.Distance(a, b), locked.Distance(a, b); ds != dl {
					t.Fatalf("distance(%s,%s): snapshot %d, locked %d", a, b, ds, dl)
				}
				for _, th := range []int{1, 2, 3, 4, 5, 7} {
					if rs, rl := snap.Related(a, b, th), locked.Related(a, b, th); rs != rl {
						t.Fatalf("related(%s,%s,%d): snapshot %v, locked %v", a, b, th, rs, rl)
					}
				}
				// Paths may differ when ties exist; their weights must not.
				ps, pl := snap.Path(a, b), locked.Path(a, b)
				if (ps == nil) != (pl == nil) {
					t.Fatalf("path(%s,%s): snapshot nil=%v, locked nil=%v", a, b, ps == nil, pl == nil)
				}
				if ws, wl := pathWeight(ps), pathWeight(pl); ws != wl {
					t.Fatalf("path weight(%s,%s): snapshot %d, locked %d", a, b, ws, wl)
				}
			}
		}
	}

	t.Run("course", func(t *testing.T) { check(t, BuildCourseOntology()) })
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 10; trial++ {
			check(t, randomOntology(rng))
		}
	})
}

func pathWeight(steps []PathStep) int {
	w := 0
	for _, s := range steps {
		w += s.Kind.Weight()
	}
	return w
}

// TestSnapshotExtractTermsParity cross-checks term extraction between
// the compiled phrase index and the legacy scanning matcher, including
// plurals, aliases, hyphens and multi-word terms.
func TestSnapshotExtractTermsParity(t *testing.T) {
	o := BuildCourseOntology()
	snap := o.Snapshot()
	locked := lockedReadPath{o}
	cases := [][]string{
		{"the", "binary", "search", "tree", "supports", "insert"},
		{"stacks", "and", "queues", "are", "linear", "structures"},
		{"the", "data", "is", "pushed", "in", "this", "heap"},
		{"a", "double", "ended", "queue", "has", "a", "rear"},
		{"the", "Binary-Search", "tree", "keeps", "keys", "sorted"},
		{"last", "in", "first", "out", "order"},
		{"nothing", "relevant", "here"},
		{},
	}
	for _, tokens := range cases {
		got := snap.ExtractTerms(tokens)
		want := locked.ExtractTerms(tokens)
		if len(got) != len(want) {
			t.Fatalf("tokens %v: snapshot found %d terms, locked %d", tokens, len(got), len(want))
		}
		for i := range got {
			if got[i].Item.ID != want[i].Item.ID || got[i].Start != want[i].Start || got[i].End != want[i].End {
				t.Fatalf("tokens %v term %d: snapshot (%d,%d,%d), locked (%d,%d,%d)", tokens, i,
					got[i].Item.ID, got[i].Start, got[i].End, want[i].Item.ID, want[i].Start, want[i].End)
			}
		}
	}
}

// TestSnapshotImmutable pins a snapshot, mutates the live ontology, and
// asserts the pinned view is untouched while a fresh snapshot sees the
// change — the no-torn-reads property every consumer relies on.
func TestSnapshotImmutable(t *testing.T) {
	o := BuildCourseOntology()
	snap := o.Snapshot()
	v := snap.Version()

	if d := snap.Distance("tree", "pop"); d <= DefaultRelatedThreshold {
		t.Fatalf("precondition: tree-pop should be unrelated, got %d", d)
	}
	if err := o.Relate("tree", "pop", RelHasOperation); err != nil {
		t.Fatal(err)
	}
	if err := o.SetDescription("stack", "rewritten"); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot must not move.
	if d := snap.Distance("tree", "pop"); d != 4 {
		t.Errorf("pinned snapshot distance(tree,pop) changed to %d", d)
	}
	it, ok := snap.Lookup("stack")
	if !ok || it.Definition.Description == "rewritten" {
		t.Errorf("pinned snapshot saw the live description mutation")
	}
	if snap.Version() != v {
		t.Errorf("pinned snapshot version moved: %d -> %d", v, snap.Version())
	}

	// A fresh snapshot sees both mutations and a higher version.
	fresh := o.Snapshot()
	if fresh.Version() <= v {
		t.Errorf("fresh snapshot version %d not after %d", fresh.Version(), v)
	}
	if d := fresh.Distance("tree", "pop"); d != 1 {
		t.Errorf("fresh snapshot distance(tree,pop) = %d, want 1", d)
	}
	if it, ok := fresh.Lookup("stack"); !ok || it.Definition.Description != "rewritten" {
		t.Errorf("fresh snapshot missed the description mutation")
	}
}

// TestSnapshotReusedUntilMutation asserts the publish path: repeated
// reads share one compiled snapshot, and only mutation republishes.
func TestSnapshotReusedUntilMutation(t *testing.T) {
	o := BuildCourseOntology()
	s1 := o.Snapshot()
	s2 := o.Snapshot()
	if s1 != s2 {
		t.Fatal("back-to-back snapshots differ without mutation")
	}
	if _, err := o.AddItem("trie", KindConcept); err != nil {
		t.Fatal(err)
	}
	s3 := o.Snapshot()
	if s3 == s1 {
		t.Fatal("snapshot not republished after mutation")
	}
	if _, ok := s3.Lookup("trie"); !ok {
		t.Fatal("republished snapshot missing the new item")
	}
}

// TestRelatedWithinThresholdZeroAllocs is the E10 acceptance criterion:
// a within-threshold Related query is a pure table lookup.
func TestRelatedWithinThresholdZeroAllocs(t *testing.T) {
	snap := BuildCourseOntology().Snapshot()
	pairs := [][2]string{
		{"stack", "pop"},                 // related, distance 1
		{"push", "pop"},                  // related, distance 2
		{"tree", "pop"},                  // unrelated
		{"stack", "queue"},               // unrelated at threshold 2
		{"binary search tree", "insert"}, // multi-word name
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range pairs {
			snap.Related(p[0], p[1], 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("Related within threshold allocated %.1f times per run, want 0", allocs)
	}
}

// TestSnapshotMaxPhraseLenMaintained is the regression test for the old
// ExtractTerms recomputing the max phrase length by scanning every name
// per call: the snapshot stores it and mutation republishes it.
func TestSnapshotMaxPhraseLenMaintained(t *testing.T) {
	o := New("test")
	for _, name := range []string{"stack", "binary tree"} {
		if _, err := o.AddItem(name, KindConcept); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Snapshot().MaxPhraseLen(); got != 2 {
		t.Fatalf("max phrase len = %d, want 2", got)
	}

	// A longer item republishes a larger bound...
	if _, err := o.AddItem("very deep left leaning red black tree", KindConcept); err != nil {
		t.Fatal(err)
	}
	if got := o.Snapshot().MaxPhraseLen(); got != 7 {
		t.Fatalf("max phrase len after add = %d, want 7", got)
	}
	tokens := []string{"the", "very", "deep", "left", "leaning", "red", "black", "tree", "wins"}
	terms := o.ExtractTerms(tokens)
	if len(terms) != 1 || terms[0].End-terms[0].Start != 7 {
		t.Fatalf("long phrase not matched greedily: %+v", terms)
	}

	// ...a longer alias too, and removal shrinks it again.
	if err := o.AddAlias("stack", "last in first out pile of plates you know"); err != nil {
		t.Fatal(err)
	}
	if got := o.Snapshot().MaxPhraseLen(); got != 9 {
		t.Fatalf("max phrase len after alias = %d, want 9", got)
	}
	if err := o.RemoveItem("very deep left leaning red black tree"); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveItem("stack"); err != nil {
		t.Fatal(err)
	}
	if got := o.Snapshot().MaxPhraseLen(); got != 2 {
		t.Fatalf("max phrase len after removals = %d, want 2", got)
	}
}

// TestSnapshotStats sanity-checks the compiled metadata surfaced by
// ontologyctl and the E10 harness.
func TestSnapshotStats(t *testing.T) {
	o := BuildCourseOntology()
	st := o.Snapshot().Stats()
	if st.Items != o.Len() {
		t.Errorf("stats items %d != len %d", st.Items, o.Len())
	}
	if st.Relations != len(o.Relations()) {
		t.Errorf("stats relations %d != %d", st.Relations, len(o.Relations()))
	}
	if st.TableRadius != SnapshotTableRadius {
		t.Errorf("stats radius %d", st.TableRadius)
	}
	// Every item is within radius of itself, so the tables hold at
	// least one entry per item.
	if st.TableEntries < st.Items {
		t.Errorf("stats table entries %d < items %d", st.TableEntries, st.Items)
	}
	if st.MaxPhraseLen < 4 { // "last in first out"
		t.Errorf("stats max phrase len %d, want >= 4", st.MaxPhraseLen)
	}
}

// TestSnapshotConcurrentPublish hammers snapshot publication from a
// writer while readers query distances, under -race: the publish path
// itself must be safe and every query must see a coherent graph.
func TestSnapshotConcurrentPublish(t *testing.T) {
	o := BuildCourseOntology()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("ephemeral-%d", i)
			if _, err := o.AddItem(name, KindOperation); err != nil {
				t.Errorf("add: %v", err)
				return
			}
			if err := o.Relate("stack", name, RelHasOperation); err != nil {
				t.Errorf("relate: %v", err)
				return
			}
			if err := o.RemoveItem(name); err != nil {
				t.Errorf("remove: %v", err)
				return
			}
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		snap := o.Snapshot()
		if d := snap.Distance("stack", "pop"); d != 1 {
			t.Fatalf("iteration %d: distance(stack,pop) = %d", i, d)
		}
		if snap.Related("tree", "pop", 0) {
			t.Fatalf("iteration %d: tree-pop related", i)
		}
	}
}
