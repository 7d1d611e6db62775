package linkgrammar

import (
	"fmt"
	"sync"
	"testing"
)

func cachedParser(t *testing.T, size int) *Parser {
	t.Helper()
	dict, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	return NewParser(dict, Options{CacheSize: size})
}

// TestParseCacheHit checks a repeated sentence is served from the cache
// and yields the same result.
func TestParseCacheHit(t *testing.T) {
	p := cachedParser(t, 8)
	first, err := p.Parse("the student learns the lesson")
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Parse("the student learns the lesson")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("repeat parse did not return the cached result")
	}
	st := p.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if !first.Valid() {
		t.Error("sentence should parse clean")
	}
}

// TestParseCacheKeying checks different punctuation/case normalize to
// one entry while different words do not collide.
func TestParseCacheKeying(t *testing.T) {
	p := cachedParser(t, 8)
	if _, err := p.Parse("The student learns."); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Parse("the student learns"); err != nil {
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.Hits != 1 {
		t.Errorf("normalized repeat: hits = %d, want 1", st.Hits)
	}
	if _, err := p.Parse("the teacher learns"); err != nil {
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.Misses != 2 {
		t.Errorf("distinct sentence: misses = %d, want 2", st.Misses)
	}
}

// TestParseCacheEviction checks the LRU bound holds.
func TestParseCacheEviction(t *testing.T) {
	p := cachedParser(t, 2)
	sentences := []string{
		"the student learns",
		"the teacher explains",
		"the cat sleeps",
	}
	for _, s := range sentences {
		if _, err := p.Parse(s); err != nil {
			t.Fatal(err)
		}
	}
	st := p.CacheStats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want size 2 and 1 eviction", st)
	}
	// The oldest sentence was evicted: parsing it again misses.
	if _, err := p.Parse(sentences[0]); err != nil {
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.Hits != 0 {
		t.Errorf("evicted entry served from cache (hits = %d)", st.Hits)
	}
}

// TestParseCacheInvalidation checks teaching the dictionary a new word
// flushes stale results: a sentence with an unknown word must re-parse
// after the word is defined.
func TestParseCacheInvalidation(t *testing.T) {
	p := cachedParser(t, 8)
	const sentenceText = "the student learns the quicksort"

	before, err := p.Parse(sentenceText)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.UnknownWords) == 0 {
		t.Fatal("quicksort should be unknown before teaching")
	}
	if err := p.Dictionary().Define("quicksort", "<domain-term>"); err != nil {
		t.Fatal(err)
	}
	after, err := p.Parse(sentenceText)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("stale cached result served after dictionary change")
	}
	if len(after.UnknownWords) != 0 {
		t.Errorf("unknown words = %v after teaching quicksort", after.UnknownWords)
	}
	st := p.CacheStats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// Steady state again: the refreshed entry serves hits.
	if _, err := p.Parse(sentenceText); err != nil {
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.Hits != 1 {
		t.Errorf("hits = %d after re-warm, want 1", st.Hits)
	}
}

// TestParseCacheConcurrent hammers one cached parser from many
// goroutines (run under -race) mixing repeats, undefined words and
// dictionary teaching, including resets of the shared unknown-word
// expansion.
func TestParseCacheConcurrent(t *testing.T) {
	p := cachedParser(t, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s := fmt.Sprintf("the student learns the lesson %d", i%5)
				if i%3 == 0 {
					s = fmt.Sprintf("the zq%dx%d student learns the lesson", w, i)
				}
				if _, err := p.Parse(s); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%17 == 0 {
					if err := p.Dictionary().SetUnknownWordMacro("unknown-word"); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
				if i%13 == 0 {
					word := fmt.Sprintf("zworddef%d%d", w, i)
					if err := p.Dictionary().Define(word, "<domain-term>"); err != nil {
						t.Errorf("worker %d define: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.CacheStats()
	if st.Hits+st.Misses != 8*40 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 8*40)
	}
}
