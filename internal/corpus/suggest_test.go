package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"semagent/internal/sentence"
)

// suggestOracle is the scoring Suggest had before the grouped index,
// kept as a brute-force reference: every correct record sharing a
// content token with the query is scored on its own, and the full
// candidate list is sorted.
func suggestOracle(records []Record, tokens, topics []string, limit int) []Suggestion {
	if limit <= 0 {
		limit = 3
	}
	query := uniqueContent(tokens)
	if len(query) == 0 {
		return nil
	}
	topicSet := make(map[string]bool, len(topics))
	for _, t := range topics {
		topicSet[t] = true
	}
	var cands []Suggestion
	for _, r := range records {
		if r.Verdict != VerdictCorrect {
			continue
		}
		content := uniqueContent(r.Tokens)
		shared := 0
		for _, q := range query {
			for _, c := range content {
				if q == c {
					shared++
				}
			}
		}
		if shared == 0 {
			continue
		}
		score := float64(shared) / float64(len(content)+len(query)-shared)
		for _, topic := range r.Topics {
			if topicSet[topic] {
				score += 0.25
			}
		}
		cands = append(cands, Suggestion{Record: r, Score: score})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Record.ID < cands[j].Record.ID
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	return cands
}

func uniqueContent(tokens []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range sentence.ContentTokens(tokens) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// randomRecord draws from a vocabulary small enough that texts repeat,
// token sets collide in different word orders, stopwords appear, and
// topic lists repeat, reorder and carry duplicates.
func randomRecord(rng *rand.Rand) Record {
	vocab := []string{"the", "a", "is", "has", "stack", "queue", "push", "pop", "tree", "node", "insert", "heap"}
	topicVocab := []string{"stack", "queue", "push", "tree"}
	tokens := make([]string, 1+rng.Intn(5))
	for i := range tokens {
		tokens[i] = vocab[rng.Intn(len(vocab))]
	}
	var topics []string
	for i := rng.Intn(4); i > 0; i-- {
		topics = append(topics, topicVocab[rng.Intn(len(topicVocab))])
	}
	verdicts := []Verdict{VerdictCorrect, VerdictCorrect, VerdictCorrect, VerdictSyntaxError, VerdictSemanticError, VerdictQuestion, VerdictUnknown}
	return Record{
		Text:    strings.Join(tokens, " "),
		Tokens:  tokens,
		Verdict: verdicts[rng.Intn(len(verdicts))],
		Topics:  topics,
	}
}

// checkAgainstOracle compares Suggest with the oracle on random queries
// at limits 1-3, by record ID and bit-exact score.
func checkAgainstOracle(t *testing.T, s *Store, rng *rand.Rand, queries int) {
	t.Helper()
	records := s.All()
	for q := 0; q < queries; q++ {
		probe := randomRecord(rng)
		for limit := 1; limit <= 3; limit++ {
			got := s.Suggest(probe.Tokens, probe.Topics, limit)
			want := suggestOracle(records, probe.Tokens, probe.Topics, limit)
			if !sameSuggestions(got, want) {
				t.Fatalf("Suggest(%q, topics %q, limit %d) = %s, oracle %s",
					probe.Tokens, probe.Topics, limit, describe(got), describe(want))
			}
		}
	}
}

func sameSuggestions(a, b []Suggestion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Record.ID != b[i].Record.ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func describe(ss []Suggestion) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = fmt.Sprintf("%d:%v", s.Record.ID, s.Score)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func TestSuggestMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := NewStore()
			for i := 0; i < 300; i++ {
				s.Add(randomRecord(rng))
			}
			checkAgainstOracle(t, s, rng, 100)

			// Put replacements: each rewrites an existing ID with a new
			// random record, which flips the verdict or the topics for
			// many of them and moves the record between groups. Some IDs
			// land past the counter, out of order.
			for i := 0; i < 150; i++ {
				r := randomRecord(rng)
				r.ID = 1 + rng.Int63n(340)
				s.Put(r)
			}
			checkAgainstOracle(t, s, rng, 100)

			// Reload through JSONL with replayed lines appended, so the
			// loader sees duplicate IDs and resolves them last-write-wins.
			var buf strings.Builder
			if err := s.SaveJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				r := randomRecord(rng)
				r.ID = 1 + rng.Int63n(int64(s.Len()))
				var line strings.Builder
				tmp := NewStore()
				tmp.Put(r)
				if err := tmp.SaveJSONL(&line); err != nil {
					t.Fatal(err)
				}
				buf.WriteString(line.String())
			}
			loaded, err := LoadJSONL(strings.NewReader(buf.String()))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, loaded, rng, 100)
		})
	}
}

func TestStats(t *testing.T) {
	s := NewStore()
	s.Add(Record{Text: "the stack has push", Tokens: []string{"the", "stack", "has", "push"}, Verdict: VerdictCorrect})
	s.Add(Record{Text: "push the stack has", Tokens: []string{"push", "the", "stack", "has"}, Verdict: VerdictCorrect})
	s.Add(Record{Text: "the stack has push", Tokens: []string{"the", "stack", "has", "push"}, Verdict: VerdictCorrect, Topics: []string{"stack"}})
	s.Add(Record{Text: "the stack have push", Tokens: []string{"the", "stack", "have", "push"}, Verdict: VerdictSyntaxError})
	s.Suggest([]string{"stack"}, nil, 3)
	s.Suggest([]string{"the"}, nil, 3) // stopwords only: not a search
	want := Stats{Records: 4, Groups: 2, SuggestCalls: 1, GroupsScored: 2}
	if got := s.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	// Emptying a group by replacement drops it from the live count.
	s.Put(Record{ID: 3, Text: "x", Tokens: []string{"x"}, Verdict: VerdictQuestion})
	if got := s.Stats().Groups; got != 1 {
		t.Errorf("Groups after replacement = %d, want 1", got)
	}
}

func TestConcurrentAddPutSuggest(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				r := randomRecord(rng)
				switch w {
				case 0:
					s.Add(r)
				case 1:
					r.ID = 1 + rng.Int63n(200)
					s.Put(r)
				default:
					for _, sg := range s.Suggest(r.Tokens, r.Topics, 1+i%3) {
						if sg.Record.Verdict != VerdictCorrect {
							t.Errorf("suggested a %s record", sg.Record.Verdict)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	checkAgainstOracle(t, s, rand.New(rand.NewSource(99)), 100)
}
