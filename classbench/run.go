package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/corpus"
)

// options are one benchmark run's settings.
type options struct {
	// out is the directory every file the run writes goes under.
	out     string
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	// history is the semester fixture's message count: historyMessages,
	// or a smaller history in the benchmark's own tests.
	history int
	// drain bounds how long a phase waits for its last lines' echoes
	// and responses; lines still unanswered then count as failed.
	drain time.Duration
}

// phaseResult is one load phase's outcome.
type phaseResult struct {
	lines, failed int
	// echo, feedback and late are open-loop samples from each line's
	// scheduled send time.
	echo, feedback, late []time.Duration
	// elapsed runs from the phase's first send until its last line is
	// supervised and answered.
	elapsed time.Duration
	// recordsStart/End are the corpus sizes around the phase.
	recordsStart, recordsEnd int
}

// window is the closed-loop lines kept outstanding per connection. A
// line draws its echo and at most one agent response, so a full window
// stays well inside the server's 64-message per-client send queue.
const window = 16

// roundResult is one round: a fresh stack on a fresh copy of the
// workload's data dir, both phases, teardown.
type roundResult struct {
	setup        time.Duration
	open, closed phaseResult
	heapLiveMB   float64
	gcPause      time.Duration
	trackers     []*tracker
	problems     []string
	// corpus is the round's learner corpus after its last line, kept
	// for the correctness gate.
	corpus *corpus.Store
	// layer holds a traced round's per-layer figures (nil untraced).
	layer map[string]float64
}

func (r *roundResult) capacity() float64 {
	if r.closed.elapsed <= 0 {
		return 0
	}
	return float64(r.closed.lines) / r.closed.elapsed.Seconds()
}

// stores is the corpus size at each phase boundary.
func (r *roundResult) stores() [4]int {
	return [4]int{r.open.recordsStart, r.open.recordsEnd, r.closed.recordsStart, r.closed.recordsEnd}
}

func (r *roundResult) attempted() int { return r.open.lines + r.closed.lines }
func (r *roundResult) failed() int    { return r.open.failed + r.closed.failed }

// runRound copies the fixture (an empty dir when "") to dir, boots the
// stack on it timing setup up to the first accepted join, sends both
// phases of p, and tears the stack down. With tr set, the server gets
// the traced supervisor instead of the production adapter.
func runRound(o options, p plan, fixture, dir string, tr *tracer) (*roundResult, error) {
	if err := freshDataDir(fixture, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	epoch := time.Now()
	if tr != nil {
		tr.epoch = epoch
	}
	var texts [2][]string
	trackers := make([]*tracker, 2)
	byRoom := make(map[string]*tracker)
	for r := range rooms {
		texts[r] = append(append([]string(nil), p.Open[r]...), p.Closed[r]...)
		trackers[r] = newTracker(epoch, texts[r])
		byRoom[rooms[r]] = trackers[r]
	}
	var cnt *counter
	wrap := func(sup *core.Supervisor) chat.Supervisor {
		var inner chat.BatchSupervisor
		if tr != nil {
			inner = newTraced(sup, tr)
		} else {
			inner = sup.ChatSupervisor().(chat.BatchSupervisor)
		}
		cnt = &counter{inner: inner, rooms: byRoom}
		return cnt
	}

	res := &roundResult{trackers: trackers}
	start := time.Now()
	st, err := newStack(dir, wrap)
	if err != nil {
		return nil, err
	}
	first, err := st.dial(0)
	if err != nil {
		_ = st.close()
		return nil, fmt.Errorf("first join: %w", err)
	}
	res.setup = time.Since(start)
	second, err := st.dial(1)
	if err != nil {
		_ = first.Close()
		_ = st.close()
		return nil, fmt.Errorf("second join: %w", err)
	}
	clients := []*chat.Client{first, second}
	var readers sync.WaitGroup
	for r, c := range clients {
		readers.Add(1)
		go func(t *tracker, c *chat.Client, me string) {
			defer readers.Done()
			t.receive(c, me)
		}(trackers[r], c, learner(r))
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	pause0 := mem.PauseTotalNs

	// Open loop: both rooms on one fixed schedule at the workload's
	// rate, room 1 half an interval behind room 0.
	openEnd := [2]int{len(p.Open[0]), len(p.Open[1])}
	interval := time.Duration(float64(time.Second) * 2 / o.spec.Rate)
	startAt := trackers[0].now() + 20*time.Millisecond
	records := st.sup.Corpus().Len()
	sendPhase(clients, trackers, texts, [2]int{}, openEnd, func(r, k int) time.Duration {
		return startAt + time.Duration(k)*interval + time.Duration(r)*interval/2
	}, 0, o.drain, tr != nil)
	res.open = collect(trackers, [2]int{}, openEnd, true, o.drain)
	res.open.recordsStart, res.open.recordsEnd = records, st.sup.Corpus().Len()

	// Closed loop: each connection keeps window lines outstanding.
	closedEnd := [2]int{len(texts[0]), len(texts[1])}
	records = st.sup.Corpus().Len()
	sendPhase(clients, trackers, texts, openEnd, closedEnd, nil, window, o.drain, tr != nil)
	res.closed = collect(trackers, openEnd, closedEnd, false, o.drain)
	res.closed.recordsStart, res.closed.recordsEnd = records, st.sup.Corpus().Len()

	runtime.ReadMemStats(&mem)
	res.gcPause = time.Duration(mem.PauseTotalNs - pause0)
	if tr != nil {
		res.layer = tr.layers(st, cnt, trackers, res)
	}
	runtime.GC()
	runtime.ReadMemStats(&mem)
	res.heapLiveMB = float64(mem.HeapAlloc) / (1 << 20)
	res.corpus = st.sup.Corpus()

	for _, t := range trackers {
		t.mu.Lock()
		res.problems = append(res.problems, t.problems...)
		t.mu.Unlock()
	}
	for _, c := range clients {
		_ = c.Close()
	}
	readers.Wait()
	if err := st.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// sendPhase sends lines [from[r], to[r]) of each room from its own
// goroutine and returns when both have sent everything. With due set,
// line k of room r is sent at due(r, k) (open loop); otherwise each
// room keeps window lines outstanding (closed loop).
func sendPhase(clients []*chat.Client, trackers []*tracker, texts [2][]string, from, to [2]int,
	due func(r, k int) time.Duration, window int, stall time.Duration, timeSay bool) {
	var wg sync.WaitGroup
	for r := range clients {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, t := clients[r], trackers[r]
			for i := from[r]; i < to[r]; i++ {
				var d time.Duration
				if due != nil {
					d = due(r, i-from[r])
					if wait := d - t.now(); wait > 0 {
						time.Sleep(wait)
					}
				} else if !waitWindow(t, i-window+1, stall) {
					failRest(t, i, to[r])
					return
				}
				at := t.now()
				if due == nil {
					d = at
				}
				err := c.Say(texts[r][i])
				end := at
				if timeSay {
					end = t.now()
				}
				t.sent(i, d, at, end, err)
				if err != nil {
					failRest(t, i+1, to[r])
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// waitWindow waits until at least n lines are resolved, giving up when
// no line resolves for stall.
func waitWindow(t *tracker, n int, stall time.Duration) bool {
	for {
		before := t.resolvedCount()
		if before >= n {
			return true
		}
		if t.waitResolved(n, time.Now().Add(stall)) {
			return true
		}
		if t.resolvedCount() == before {
			return false
		}
	}
}

// failRest fails lines [from, to) that were never sent.
func failRest(t *tracker, from, to int) {
	now := t.now()
	for i := from; i < to; i++ {
		t.sent(i, now, now, now, errNotSent)
	}
}

var errNotSent = fmt.Errorf("not sent: connection failed")

// collect waits for the phase's lines to resolve (up to drain), fails
// the stragglers and gathers the phase's figures.
func collect(trackers []*tracker, from, to [2]int, open bool, drain time.Duration) phaseResult {
	deadline := time.Now().Add(drain)
	for r, t := range trackers {
		t.waitResolved(to[r], deadline)
	}
	var res phaseResult
	var firstSent, lastDone time.Duration = -1, 0
	for r, t := range trackers {
		t.mu.Lock()
		for i := from[r]; i < to[r]; i++ {
			l := &t.lines[i]
			if !l.done && !l.failed {
				l.failed = true
				t.resolved++
			}
			res.lines++
			if l.failed {
				res.failed++
				continue
			}
			if firstSent < 0 || l.sent < firstSent {
				firstSent = l.sent
			}
			if l.finished > lastDone {
				lastDone = l.finished
			}
			if open {
				res.echo = append(res.echo, l.echo-l.due)
				res.late = append(res.late, l.sent-l.due)
				if l.want > 0 {
					res.feedback = append(res.feedback, l.feedback-l.due)
				}
			}
		}
		t.mu.Unlock()
	}
	if firstSent >= 0 {
		res.elapsed = lastDone - firstSent
	}
	return res
}

// quantile is the q-quantile of ds by linear interpolation between the
// closest ranks; it sorts ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(pos)
	if lo+1 >= len(ds) {
		return ds[len(ds)-1]
	}
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[lo+1]-ds[lo]))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
