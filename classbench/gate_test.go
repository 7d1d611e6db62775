package main

import (
	"strings"
	"testing"
	"time"

	"semagent/internal/chat"
	"semagent/internal/core"
)

// answered is a tracker whose lines were all answered with resps.
func answered(t *testing.T, texts []string, resps func(text string) []chat.Response) *tracker {
	t.Helper()
	tr := newTracker(time.Now(), texts)
	for i, text := range texts {
		l := &tr.lines[i]
		l.got = resps(text)
		l.want, l.done = len(l.got), true
	}
	return tr
}

func TestGateAcceptsProductionVerdictsAndRejectsTamperedOne(t *testing.T) {
	texts := []string{
		"the stack have the push operation", // Learning_Angel
		"the tree has the pop operation",    // Semantic_Agent
		"what is a binary search tree?",     // QA_System: not gated
		"the teacher explains the lesson",   // silent
	}
	sup, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A recording supervisor's corpus fills up, so its Learning_Angel
	// comments gain a suggestion the reference never makes.
	for _, text := range []string{"the stack has the push operation", "the stack has a push operation"} {
		if _, err := sup.Process("r", "u", text); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := newReference(plan{Open: phaseLines{texts, nil}}, sup.Corpus())
	if err != nil {
		t.Fatal(err)
	}
	prod := func(text string) []chat.Response {
		a, err := sup.Process("r", "u", text)
		if err != nil {
			t.Fatal(err)
		}
		return a.Responses
	}
	tr := answered(t, texts, prod)
	if !strings.Contains(tr.lines[0].got[0].Text, suggestionMark) {
		t.Fatalf("setup: expected a corpus suggestion in %q", tr.lines[0].got[0].Text)
	}
	if bad := gate(ref, []*tracker{tr}, sup.Corpus(), 10); len(bad) != 0 {
		t.Fatalf("production verdicts rejected: %v", bad)
	}

	// quote replaces the Learning_Angel comment's suggestion.
	quote := func(l *lineState, s string) {
		text := l.got[0].Text
		l.got[0].Text = text[:strings.Index(text, suggestionMark)] + s
	}
	for _, c := range []struct {
		line   int
		tamper func(*lineState)
		want   string
	}{
		{1, func(l *lineState) { l.got[0].Text += " (tampered)" }, "got verdict"},
		{1, func(l *lineState) { l.got = nil }, "got verdict"},
		{1, func(l *lineState) { l.got[0].Agent = core.AgentQA }, "got verdict"},
		{0, func(l *lineState) { quote(l, suggestionMark+`the queue has the push operation"`) }, "not a correct record"},
		{0, func(l *lineState) { quote(l, suggestionMark+`the teacher explains the lesson"`) }, "shares no content word"},
		{0, func(l *lineState) { quote(l, "") }, "no corpus suggestion"},
	} {
		tr := answered(t, texts, prod)
		c.tamper(&tr.lines[c.line])
		if bad := gate(ref, []*tracker{tr}, sup.Corpus(), 10); len(bad) != 1 || !strings.Contains(bad[0], c.want) {
			t.Errorf("tampered line %d: gate reported %v, want one mismatch saying %q", c.line, bad, c.want)
		}
	}
}

func TestCheckSuggestionNeedsOneOnlyWhenACorrectRecordSharesAWord(t *testing.T) {
	angel := func(text string) []chat.Response { return []chat.Response{{Agent: core.AgentAngel, Text: text}} }
	content := []string{"stack", "push"}
	correct := map[string][]string{"the stack grows": {"the", "stack", "grows"}}
	for _, c := range []struct {
		name                  string
		resps                 []chat.Response
		startWords, roomWords map[string]bool
		wantOK                bool
	}{
		{"nothing to suggest", angel("Check your articles (a/an/the)."), nil, map[string]bool{"queue": true}, true},
		{"start corpus shares a word", angel("Check your articles (a/an/the)."), map[string]bool{"push": true}, nil, false},
		{"earlier room line shares a word", angel("Check your articles (a/an/the)."), nil, map[string]bool{"stack": true}, false},
		{"suggestion from a later line", angel("Check." + suggestionMark + `the stack grows"`), nil, nil, true},
	} {
		msg := checkSuggestion(content, c.resps, c.startWords, c.roomWords, correct)
		if (msg == "") != c.wantOK {
			t.Errorf("%s: checkSuggestion = %q, want ok=%v", c.name, msg, c.wantOK)
		}
	}
}

func TestCompareStoresNeedsEqualCorpusSizes(t *testing.T) {
	round := func(openEnd int) *roundResult {
		r := &roundResult{}
		r.open.recordsStart, r.open.recordsEnd = 100, openEnd
		r.closed.recordsStart, r.closed.recordsEnd = openEnd, openEnd+50
		return r
	}
	if bad := compareStores(round(200), round(200)); len(bad) != 0 {
		t.Errorf("equal sizes reported: %v", bad)
	}
	if bad := compareStores(round(200), round(199)); len(bad) != 1 {
		t.Errorf("a traced round that recorded one line less: compareStores = %v, want one mismatch", bad)
	}
}

func TestCompareVerdictsSkipsUnansweredLines(t *testing.T) {
	a := [][]string{{"x", "unanswered", "y"}}
	b := [][]string{{"x", "z", "w"}}
	if bad := compareVerdicts(a, b, 10); len(bad) != 1 || !strings.Contains(bad[0], "line 2") {
		t.Fatalf("compareVerdicts = %v, want one mismatch at line 2", bad)
	}
}
