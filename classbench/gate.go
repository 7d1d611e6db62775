package main

import (
	"fmt"
	"strings"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/corpus"
	"semagent/internal/linkgrammar"
	"semagent/internal/sentence"
)

// suggestionMark starts the corpus-suggestion tail of a Learning_Angel
// comment. The suggestion depends on what the corpus holds when the
// line is supervised, so the verdict comparison leaves it out and
// checkSuggestion checks it against the round's corpus instead.
const suggestionMark = ` A similar correct sentence: "`

// verdictOf is the store-independent part of a line's supervision as
// the learner saw it: its Learning_Angel and Semantic_Agent responses,
// with the corpus suggestion cut off. QA answers draw on the corpus and
// FAQ, which grow during the run, so they are left out.
func verdictOf(resps []chat.Response) string {
	var b strings.Builder
	for _, r := range resps {
		text := r.Text
		switch r.Agent {
		case core.AgentAngel:
			if i := strings.Index(text, suggestionMark); i >= 0 {
				text = text[:i]
			}
		case core.AgentSemantic:
		default:
			continue
		}
		fmt.Fprintf(&b, "%s: %s\n", r.Agent, text)
	}
	return b.String()
}

// suggestionOf returns the sentence a line's Learning_Angel comment
// quotes from the corpus, if it quotes one.
func suggestionOf(resps []chat.Response) (string, bool) {
	for _, r := range resps {
		if r.Agent != core.AgentAngel {
			continue
		}
		if i := strings.Index(r.Text, suggestionMark); i >= 0 {
			return strings.TrimSuffix(r.Text[i+len(suggestionMark):], `"`), true
		}
	}
	return "", false
}

// refLine is the reference supervision of one distinct line.
type refLine struct {
	verdict string
	// record is the verdict the line is recorded with in the corpus.
	record corpus.Verdict
	// content are the line's content words, the ones Suggest matches.
	content []string
}

// reference is what a run's rounds are checked against.
type reference struct {
	lines map[string]refLine
	// startWords are the content words of the correct records every
	// round's corpus starts with.
	startWords map[string]bool
}

// newReference supervises each distinct line of p once with a separate
// core.Supervisor that records nothing, so its corpus stays empty and
// its verdicts depend on no store. start is the corpus every round
// starts from (nil when it starts empty).
func newReference(p plan, start *corpus.Store) (*reference, error) {
	sup, err := core.New(core.Config{DisableRecording: true})
	if err != nil {
		return nil, err
	}
	ref := &reference{lines: make(map[string]refLine), startWords: make(map[string]bool)}
	for _, ph := range []phaseLines{p.Open, p.Closed} {
		for _, lines := range ph {
			for _, text := range lines {
				if _, ok := ref.lines[text]; ok {
					continue
				}
				a, err := sup.Process("reference", "reference", text)
				if err != nil {
					return nil, fmt.Errorf("reference supervisor on %q: %w", text, err)
				}
				ref.lines[text] = refLine{
					verdict: verdictOf(a.Responses),
					record:  a.Verdict,
					content: sentence.ContentTokens(linkgrammar.Tokenize(text)),
				}
			}
		}
	}
	if start != nil {
		for _, r := range start.All() {
			if r.Verdict == corpus.VerdictCorrect {
				for _, w := range sentence.ContentTokens(r.Tokens) {
					ref.startWords[w] = true
				}
			}
		}
	}
	return ref, nil
}

// gate checks every answered line of a round against the reference and
// returns the mismatches (at most limit of them, plus a count). end is
// the round's corpus after its last line: every suggestion must quote
// one of its correct records.
func gate(ref *reference, trackers []*tracker, end *corpus.Store, limit int) []string {
	correct := make(map[string][]string)
	for _, r := range end.All() {
		if r.Verdict == corpus.VerdictCorrect {
			correct[r.Text] = r.Tokens
		}
	}
	var bad []string
	n := 0
	fail := func(format string, args ...interface{}) {
		n++
		if len(bad) < limit {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	for _, t := range trackers {
		t.mu.Lock()
		// roomWords are the content words of the room's earlier correct
		// lines. Supervision keeps per-room order, so their records were
		// in the corpus before the line was supervised.
		roomWords := make(map[string]bool)
		for i := range t.lines {
			l := &t.lines[i]
			if !l.done {
				continue
			}
			want, ok := ref.lines[l.text]
			if !ok {
				fail("line %q: not in the reference", l.text)
				continue
			}
			if got := verdictOf(l.got); got != want.verdict {
				fail("line %q: got verdict %q, reference %q", l.text, got, want.verdict)
				continue
			}
			switch want.record {
			case corpus.VerdictCorrect:
				for _, w := range want.content {
					roomWords[w] = true
				}
			case corpus.VerdictSyntaxError:
				if msg := checkSuggestion(want.content, l.got, ref.startWords, roomWords, correct); msg != "" {
					fail("line %q: %s", l.text, msg)
				}
			}
		}
		t.mu.Unlock()
	}
	if n > len(bad) {
		bad = append(bad, fmt.Sprintf("... %d gate failures in all", n))
	}
	return bad
}

// checkSuggestion checks a syntax-error line's corpus suggestion, which
// depends on interleaving only in which sentence wins. The comment must
// quote a correct record of the round's corpus that shares a content
// word with the line. It must quote one whenever a correct record
// sharing a word was surely in the corpus when the line was supervised:
// one the round started with, or an earlier correct line of the room.
func checkSuggestion(content []string, resps []chat.Response, startWords, roomWords map[string]bool, correct map[string][]string) string {
	quoted, ok := suggestionOf(resps)
	if !ok {
		for _, w := range content {
			if startWords[w] || roomWords[w] {
				return fmt.Sprintf("no corpus suggestion, though a correct record shares the word %q", w)
			}
		}
		return ""
	}
	tokens, ok := correct[quoted]
	if !ok {
		return fmt.Sprintf("suggests %q, which is not a correct record of the corpus", quoted)
	}
	words := make(map[string]bool)
	for _, w := range sentence.ContentTokens(tokens) {
		words[w] = true
	}
	for _, w := range content {
		if words[w] {
			return ""
		}
	}
	return fmt.Sprintf("suggests %q, which shares no content word with the line", quoted)
}

// verdictLog is the run's verdicts in send order, per room, for
// comparing a traced run with the untraced run of the same lines.
func verdictLog(trackers []*tracker) [][]string {
	out := make([][]string, len(trackers))
	for r, t := range trackers {
		t.mu.Lock()
		for i := range t.lines {
			v := "unanswered"
			if t.lines[i].done {
				v = verdictOf(t.lines[i].got)
			}
			out[r] = append(out[r], v)
		}
		t.mu.Unlock()
	}
	return out
}

// compareStores reports a traced round whose corpus size at a phase
// boundary differs from its untraced twin's. Both send the same lines
// to the same stores, so when every line is answered in both they
// record the same number.
func compareStores(u, t *roundResult) []string {
	if u.failed() > 0 || t.failed() > 0 || u.stores() == t.stores() {
		return nil
	}
	return []string{fmt.Sprintf("corpus sizes at the phase boundaries: untraced %v, traced %v", u.stores(), t.stores())}
}
