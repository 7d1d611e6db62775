package core

import (
	"strings"
	"testing"

	"semagent/internal/corpus"
	"semagent/internal/metrics"
	"semagent/internal/semantic"
)

func newSupervisor(t *testing.T) *Supervisor {
	t.Helper()
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestCorrectSentenceFlowsSilently(t *testing.T) {
	s := newSupervisor(t)
	a, err := s.Process("room", "alice", "The stack has a push operation.")
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != corpus.VerdictCorrect {
		t.Errorf("verdict = %s", a.Verdict)
	}
	if len(a.Responses) != 0 {
		t.Errorf("agents should stay silent: %+v", a.Responses)
	}
	if a.Syntax == nil || !a.Syntax.OK {
		t.Error("syntax report missing or failed")
	}
	if a.Semantic == nil || a.Semantic.Verdict != semantic.VerdictOK {
		t.Errorf("semantic = %+v", a.Semantic)
	}
}

func TestSyntaxErrorTriggersAngel(t *testing.T) {
	s := newSupervisor(t)
	a, err := s.Process("room", "bob", "The stack have a push operation.")
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != corpus.VerdictSyntaxError {
		t.Fatalf("verdict = %s", a.Verdict)
	}
	if len(a.Responses) == 0 || a.Responses[0].Agent != AgentAngel {
		t.Fatalf("responses = %+v", a.Responses)
	}
	if !a.Responses[0].Private {
		t.Error("angel corrections should be private")
	}
	// Semantic stage must not run after a syntax failure.
	if a.Semantic != nil {
		t.Error("semantic agent ran on a syntactically broken sentence")
	}
}

func TestSemanticErrorTriggersSemanticAgent(t *testing.T) {
	s := newSupervisor(t)
	a, err := s.Process("room", "carol", "I push the data into a tree.")
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != corpus.VerdictSemanticError {
		t.Fatalf("verdict = %s (syntax ok=%v)", a.Verdict, a.Syntax != nil && a.Syntax.OK)
	}
	if len(a.Responses) == 0 || a.Responses[0].Agent != AgentSemantic {
		t.Fatalf("responses = %+v", a.Responses)
	}
	if !strings.Contains(a.Responses[0].Text, "hint") {
		t.Errorf("semantic response should carry a hint: %q", a.Responses[0].Text)
	}
}

func TestNegatedUnrelatedPairPasses(t *testing.T) {
	// The paper's flagship example must flow through the whole pipeline
	// without complaint.
	s := newSupervisor(t)
	a, err := s.Process("room", "dave", "The tree doesn't have a pop method.")
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != corpus.VerdictCorrect {
		t.Errorf("verdict = %s, want correct", a.Verdict)
	}
}

func TestQuestionRoutedToQA(t *testing.T) {
	s := newSupervisor(t)
	a, err := s.Process("room", "emma", "What is a stack?")
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != corpus.VerdictQuestion {
		t.Fatalf("verdict = %s", a.Verdict)
	}
	if a.QAAnswer == nil || !a.QAAnswer.Answered {
		t.Fatalf("qa answer = %+v", a.QAAnswer)
	}
	if len(a.Responses) == 0 || a.Responses[0].Agent != AgentQA {
		t.Fatalf("responses = %+v", a.Responses)
	}
	if !strings.Contains(a.Responses[0].Text, "Last In, First Out") {
		t.Errorf("answer = %q", a.Responses[0].Text)
	}
}

func TestRecordingSideEffects(t *testing.T) {
	s := newSupervisor(t)
	msgs := []string{
		"The stack has a push operation.",
		"The stack have a push operation.",
		"I push the data into a tree.",
		"What is a stack?",
	}
	for _, m := range msgs {
		if _, err := s.Process("room", "alice", m); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Corpus().Len(); got != len(msgs) {
		t.Errorf("corpus records = %d, want %d", got, len(msgs))
	}
	counts := s.Corpus().CountByVerdict()
	if counts[corpus.VerdictCorrect] != 1 || counts[corpus.VerdictSyntaxError] != 1 ||
		counts[corpus.VerdictSemanticError] != 1 || counts[corpus.VerdictQuestion] != 1 {
		t.Errorf("corpus verdicts = %v", counts)
	}
	p, ok := s.Profiles().Get("alice")
	if !ok {
		t.Fatal("profile missing")
	}
	if p.Messages != 4 || p.SyntaxErrors != 1 || p.SemanticErrors != 1 || p.Questions != 1 {
		t.Errorf("profile = %+v", p)
	}
	if s.Analyzer().Total() != 4 {
		t.Errorf("analyzer total = %d", s.Analyzer().Total())
	}
}

func TestDisableRecording(t *testing.T) {
	s, err := New(Config{DisableRecording: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process("room", "alice", "The stack has a push operation."); err != nil {
		t.Fatal(err)
	}
	if s.Corpus().Len() != 0 || s.Analyzer().Total() != 0 || s.Profiles().Len() != 0 {
		t.Error("recording happened despite DisableRecording")
	}
}

func TestFAQGrowsFromRepeatedQuestions(t *testing.T) {
	s := newSupervisor(t)
	for i := 0; i < 3; i++ {
		if _, err := s.Process("room", "bob", "What is a queue?"); err != nil {
			t.Fatal(err)
		}
	}
	entry, ok := s.FAQ().Lookup("what is a queue")
	if !ok {
		t.Fatal("faq entry missing")
	}
	if entry.Count < 3 {
		t.Errorf("faq count = %d", entry.Count)
	}
}

func TestRecommendAfterMistakes(t *testing.T) {
	s := newSupervisor(t)
	for i := 0; i < 3; i++ {
		if _, err := s.Process("room", "carol", "I push the data into a tree."); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Recommend("carol", 3)
	if len(recs) == 0 {
		t.Fatal("no recommendations after repeated mistakes")
	}
	if s.Recommend("nobody", 3) != nil {
		t.Error("unknown user should get no recommendations")
	}
}

func TestChatSupervisorAdapter(t *testing.T) {
	s := newSupervisor(t)
	sup := s.ChatSupervisor()
	resps := sup.Process("room", "alice", "What is a stack?")
	if len(resps) == 0 || resps[0].Agent != AgentQA {
		t.Errorf("adapter responses = %+v", resps)
	}
	if got := sup.Process("room", "alice", "The stack has a push operation."); len(got) != 0 {
		t.Errorf("adapter should be silent on correct sentences: %+v", got)
	}
}

func TestOntologyTermsTaughtToParser(t *testing.T) {
	s := newSupervisor(t)
	// "heapify" is an ontology term absent from the base dictionary; it
	// must parse as a domain noun after TeachOntologyTerms.
	if !s.Parser().Dictionary().Has("heapify") {
		t.Fatal("ontology term not taught to dictionary")
	}
	a, err := s.Process("room", "alice", "The heap has a heapify operation.")
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != corpus.VerdictCorrect {
		t.Errorf("verdict = %s", a.Verdict)
	}
}

func TestSupervisorParserIsFaultTolerant(t *testing.T) {
	// Regression: a zero-valued Config.ParserOptions must yield the
	// fault-tolerant defaults, so the Learning_Angel can point at the
	// broken words instead of reporting a bare parse failure.
	s := newSupervisor(t)
	a, err := s.Process("room", "alice", "The the cat chased a mouse.")
	if err != nil {
		t.Fatal(err)
	}
	if a.Syntax == nil || a.Syntax.OK {
		t.Fatal("duplicate determiner not flagged")
	}
	if !a.Syntax.Parsed || len(a.Syntax.NullTokens) == 0 {
		t.Errorf("error not localized: parsed=%v nulls=%v", a.Syntax.Parsed, a.Syntax.NullTokens)
	}
}

func TestStoreCountersExported(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := New(Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"The stack has a push operation.",
		"The stack has a push operation.",
		"The stack have a push operation.",
	} {
		if _, err := s.Process("room", "alice", text); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]int64)
	for _, f := range reg.Snapshot().Families {
		if len(f.Series) == 1 {
			got[f.Name] = f.Series[0].Value
		}
	}
	for name, want := range map[string]int64{
		"semagent_corpus_records":         3,
		"semagent_corpus_suggest_groups":  1,
		"semagent_parse_cache_hits_total": 1,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	for _, name := range []string{
		"semagent_corpus_suggest_calls_total",
		"semagent_corpus_suggest_groups_scored_total",
		"semagent_parse_cache_misses_total",
	} {
		if got[name] < 1 {
			t.Errorf("%s = %d, want at least 1", name, got[name])
		}
	}
}
