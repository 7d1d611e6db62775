package main

import (
	"testing"
	"time"

	"semagent/internal/chat"
)

// scripted answers each line with the responses listed for its text.
type scripted map[string][]chat.Response

func (s scripted) Process(room, user, text string) []chat.Response { return s[text] }

func (s scripted) ProcessBatch(room string, users, texts []string) [][]chat.Response {
	out := make([][]chat.Response, len(texts))
	for i, t := range texts {
		out[i] = s[t]
	}
	return out
}

func resp(text string) chat.Response {
	return chat.Response{Agent: "Learning_Angel", Text: text, Private: true}
}

// TestMatcherPairsBatchedMultiResponse drives a tracker through a
// batch whose lines drew two, zero and one responses, then a line
// supervised on its own, with echoes interleaved the way the server
// can deliver them, and checks every response lands on its line.
func TestMatcherPairsBatchedMultiResponse(t *testing.T) {
	lines := []string{"a", "b", "c", "d"}
	tr := newTracker(time.Now(), lines)
	sup := &counter{
		inner: scripted{"a": {resp("a1"), resp("a2")}, "c": {resp("c1")}, "d": {resp("d1")}},
		rooms: map[string]*tracker{"room": tr},
	}
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

	tr.onEcho("a", at(1))
	tr.onEcho("b", at(2))
	out := sup.ProcessBatch("room", []string{"u", "u", "u"}, lines[:3])
	tr.onAgent(out[0][0], at(3))
	tr.onEcho("c", at(4)) // an echo may overtake earlier lines' responses
	tr.onAgent(out[0][1], at(5))
	tr.onAgent(out[2][0], at(6))
	tr.onEcho("d", at(7))
	tr.onAgent(sup.Process("room", "u", "d")[0], at(8))

	if len(tr.problems) != 0 {
		t.Fatalf("problems: %v", tr.problems)
	}
	want := []struct {
		got      []string
		feedback time.Duration
	}{
		{[]string{"a1", "a2"}, at(5)},
		{nil, 0},
		{[]string{"c1"}, at(6)},
		{[]string{"d1"}, at(8)},
	}
	for i, w := range want {
		l := tr.lines[i]
		if !l.done {
			t.Errorf("line %q not done", l.text)
		}
		if len(l.got) != len(w.got) || l.want != len(w.got) {
			t.Fatalf("line %q: got %d responses (want %d), supervisor gave %d", l.text, len(l.got), len(w.got), l.want)
		}
		for j, g := range w.got {
			if l.got[j].Text != g {
				t.Errorf("line %q response %d = %q, want %q", l.text, j, l.got[j].Text, g)
			}
		}
		if l.feedback != w.feedback {
			t.Errorf("line %q feedback at %v, want %v", l.text, l.feedback, w.feedback)
		}
	}
	if tr.resolved != 4 {
		t.Errorf("resolved = %d, want 4", tr.resolved)
	}
	if b, n := sup.batches.Load(), sup.batched.Load(); b != 2 || n != 4 {
		t.Errorf("batches %d covering %d lines, want 2 covering 4", b, n)
	}
}

// TestMatcherFlagsStrayMessages checks that an agent message no
// supervised line is owed, and an echo out of order, are problems.
func TestMatcherFlagsStrayMessages(t *testing.T) {
	tr := newTracker(time.Now(), []string{"a", "b"})
	tr.onAgent(resp("stray"), time.Millisecond)
	tr.onEcho("b", time.Millisecond)
	if len(tr.problems) != 2 {
		t.Fatalf("problems = %v, want 2", tr.problems)
	}
}

// TestLineNotDoneUntilAllResponses keeps a line outstanding while any
// response it drew is missing, so the closed-loop window holds.
func TestLineNotDoneUntilAllResponses(t *testing.T) {
	tr := newTracker(time.Now(), []string{"a"})
	tr.onEcho("a", time.Millisecond)
	tr.onSupervised("a", 2, 2*time.Millisecond)
	tr.onAgent(resp("a1"), 3*time.Millisecond)
	if tr.lines[0].done || tr.resolved != 0 {
		t.Fatal("line done with one of two responses")
	}
	tr.onAgent(resp("a2"), 4*time.Millisecond)
	if !tr.lines[0].done || tr.lines[0].finished != 4*time.Millisecond {
		t.Fatalf("line not done at its last response: %+v", tr.lines[0])
	}
}
