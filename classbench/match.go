package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semagent/internal/chat"
)

// lineState is one line's life, in durations since the run's epoch.
type lineState struct {
	text string
	// due is the open-loop schedule time (the send time in the closed
	// loop); sent is when Say was called, sayEnd when it returned.
	due, sent, sayEnd time.Duration
	// echo is when the sender got its own line back as the room
	// broadcast; feedback is when the last agent response it drew
	// arrived.
	echo, feedback time.Duration
	// want is how many agent responses the supervisor gave (-1 until it
	// has run); got are the responses received so far, in order.
	want int
	got  []chat.Response
	// failed marks a send error; done a line fully answered.
	failed, done bool
	// finished is when the line became done: echo, supervision and every
	// response all in.
	finished time.Duration
}

// tracker pairs what one room's learner receives with the lines it
// sent. The room has one learner and supervision keeps per-room order,
// so echoes arrive in send order, supervision completes in send order,
// and the agent messages arrive in send order too: line i's responses
// are the next want(i) agent messages after line i-1's. The supervisor
// wrapper (counter) reports want(i) before the server delivers any of
// them.
type tracker struct {
	epoch time.Time

	mu    sync.Mutex
	lines []lineState
	// nEcho and nSup are the next lines awaiting an echo and
	// supervision; fb is the first line that may still be owed agent
	// responses.
	nEcho, nSup, fb int
	// resolved counts lines that are done or failed to send.
	resolved int
	problems []string

	// notify wakes a sender or phase waiter after progress (buffer 1:
	// one pending wake-up is enough, waiters re-check under mu).
	notify chan struct{}
}

func newTracker(epoch time.Time, texts []string) *tracker {
	t := &tracker{epoch: epoch, lines: make([]lineState, len(texts)), notify: make(chan struct{}, 1)}
	for i, s := range texts {
		t.lines[i] = lineState{text: s, want: -1}
	}
	return t
}

func (t *tracker) now() time.Duration { return time.Since(t.epoch) }

// problem records a pairing inconsistency; any one fails the run.
func (t *tracker) problem(format string, args ...interface{}) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tracker) wake() {
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// settle marks line i done once its echo, its supervision and all its
// responses are in.
func (t *tracker) settle(i int, at time.Duration) {
	l := &t.lines[i]
	if l.done || l.failed || l.echo == 0 || l.want < 0 || len(l.got) < l.want {
		return
	}
	l.done, l.finished = true, at
	t.resolved++
	t.wake()
}

// sent records the send of line i. A send error fails the line.
func (t *tracker) sent(i int, due, at, end time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &t.lines[i]
	l.due, l.sent, l.sayEnd = due, at, end
	if err != nil && !l.done && !l.failed {
		l.failed = true
		t.resolved++
		t.wake()
	}
}

func (t *tracker) onEcho(text string, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.nEcho
	if i >= len(t.lines) || t.lines[i].text != text {
		t.problem("echo %q does not match line %d", text, i)
		return
	}
	t.lines[i].echo = at
	t.nEcho++
	t.settle(i, at)
}

// onSupervised is called by the supervisor wrapper with the number of
// responses the line drew, before the server delivers them.
func (t *tracker) onSupervised(text string, n int, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.nSup
	if i >= len(t.lines) || t.lines[i].text != text {
		t.problem("supervised %q does not match line %d", text, i)
		return
	}
	t.lines[i].want = n
	t.nSup++
	t.settle(i, at)
}

func (t *tracker) onAgent(r chat.Response, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.fb < t.nSup && len(t.lines[t.fb].got) >= t.lines[t.fb].want {
		t.fb++
	}
	i := t.fb
	if i >= t.nSup {
		t.problem("agent message %q owed to no supervised line", r.Text)
		return
	}
	l := &t.lines[i]
	l.got = append(l.got, r)
	if len(l.got) == l.want {
		l.feedback = at
	}
	t.settle(i, at)
}

func (t *tracker) resolvedCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resolved
}

// waitResolved blocks until at least n lines are resolved or the
// deadline passes, and reports whether n was reached.
func (t *tracker) waitResolved(n int, deadline time.Time) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for t.resolvedCount() < n {
		select {
		case <-t.notify:
		case <-timer.C:
			return t.resolvedCount() >= n
		}
	}
	return true
}

// receive consumes the learner's incoming stream until it closes.
func (t *tracker) receive(c *chat.Client, me string) {
	for m := range c.Receive() {
		at := t.now()
		switch m.Type {
		case chat.TypeChat:
			if m.From == me {
				t.onEcho(m.Text, at)
			}
		case chat.TypeAgent:
			t.onAgent(chat.Response{Agent: m.Agent, Text: m.Text, Private: m.Private}, at)
		}
	}
}

// counter wraps the chat supervisor the server gets. It reports to the
// room's tracker how many responses each line drew, and counts batches.
type counter struct {
	inner chat.BatchSupervisor
	rooms map[string]*tracker

	batches, batched atomic.Int64
}

func (c *counter) Process(room, user, text string) []chat.Response {
	out := c.inner.Process(room, user, text)
	if t := c.rooms[room]; t != nil {
		t.onSupervised(text, len(out), t.now())
	}
	c.batches.Add(1)
	c.batched.Add(1)
	return out
}

func (c *counter) ProcessBatch(room string, users, texts []string) [][]chat.Response {
	out := c.inner.ProcessBatch(room, users, texts)
	if t := c.rooms[room]; t != nil {
		at := t.now()
		for i, text := range texts {
			t.onSupervised(text, len(out[i]), at)
		}
	}
	c.batches.Add(1)
	c.batched.Add(int64(len(texts)))
	return out
}
