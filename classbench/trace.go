package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"semagent/internal/angel"
	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/corpus"
	"semagent/internal/linkgrammar"
	"semagent/internal/metrics"
	"semagent/internal/ontology"
	"semagent/internal/semantic"
	"semagent/internal/sentence"
	"semagent/internal/stats"
)

// Span names. Every span but supervise and chat.say is a child of one
// message's supervise span; corpus.add is a child of stats.record.
const (
	spSupervise = iota
	spClassify
	spExtract
	spQA
	spParse
	spCheck
	spSuggest
	spSemantic
	spRecord
	spAdd
	spSay
	numSpans
)

var spanNames = [numSpans]string{
	"supervise", "sentence.classify", "ontology.extract_terms", "qa.ask",
	"linkgrammar.parse", "angel.check", "corpus.suggest", "semantic.analyze",
	"stats.record", "corpus.add", "chat.say",
}

// span is one timed call, in durations since the tracer's epoch.
// Spans of one message share Msg; Parent is -1 for a root.
type span struct {
	ID, Parent, Msg int32
	Name            uint8
	Start, End      time.Duration
}

// tracer keeps the traced round's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	msgs  atomic.Int32
	// explicitParses counts the traced supervisor's own ParseTokens
	// calls; each makes the parse inside CheckTokens a cache hit that
	// the untraced pipeline does not pay, so parse counts subtract it.
	explicitParses atomic.Int64
}

// newTracer returns an empty tracer; runRound sets its epoch to the
// round's, so spans and the trackers' send times share one time base.
func newTracer() *tracer { return &tracer{} }

// msgTrace collects one message's spans on the goroutine supervising
// it; commit publishes them together.
type msgTrace struct {
	tr    *tracer
	msg   int32
	spans []span
}

func (t *tracer) message() *msgTrace {
	return &msgTrace{tr: t, msg: t.msgs.Add(1) - 1, spans: make([]span, 0, 8)}
}

func (m *msgTrace) begin(name, parent int) int {
	m.spans = append(m.spans, span{Parent: int32(parent), Msg: m.msg, Name: uint8(name), Start: time.Since(m.tr.epoch)})
	return len(m.spans) - 1
}

func (m *msgTrace) end(i int) { m.spans[i].End = time.Since(m.tr.epoch) }

func (t *tracer) commit(m *msgTrace) {
	t.mu.Lock()
	base := int32(len(t.spans))
	for i, s := range m.spans {
		s.ID = base + int32(i)
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// traced is the supervisor the traced round hands the server. It calls
// the layers' public entry points in core.Supervisor's order and spans
// each call. Two stages run inside another in production and are
// separated here through the public API: corpus.Suggest (inside
// angel.Agent.CheckTokens; the agent here has a nil corpus, as its
// documentation allows, and the suggestion is made and appended to the
// comment below) and corpus.Add (inside stats.CorporaGenerator.Consume;
// the generator here has a nil corpus and the record is added below).
// Responses and recorded state match the production adapter's; the
// gate checks the verdicts and the corpus sizes. Two pieces of
// production work are left out, so traced times run a little low: the
// supervisor's own stage histograms (core.Config.Metrics) and the
// ontology-version check core makes when it pins a snapshot. The
// vocabulary sync that check guards never runs in a round, whose
// ontology does not change.
type traced struct {
	sup   *core.Supervisor
	angel *angel.Agent
	gen   *stats.CorporaGenerator
	tr    *tracer
}

func newTraced(sup *core.Supervisor, tr *tracer) *traced {
	return &traced{
		sup:   sup,
		angel: angel.New(sup.Parser(), nil, sup.Ontology(), angel.DefaultOptions()),
		gen:   stats.NewCorporaGenerator(nil, sup.FAQ()),
		tr:    tr,
	}
}

func (t *traced) Process(room, user, text string) []chat.Response {
	return t.process(t.sup.Ontology().Snapshot(), room, user, text)
}

// ProcessBatch pins one snapshot for the burst, as the production
// adapter does.
func (t *traced) ProcessBatch(room string, users, texts []string) [][]chat.Response {
	snap := t.sup.Ontology().Snapshot()
	out := make([][]chat.Response, len(texts))
	for i, text := range texts {
		out[i] = t.process(snap, room, users[i], text)
	}
	return out
}

func (t *traced) process(snap *ontology.Snapshot, room, user, text string) []chat.Response {
	if core.IsCommand(text) {
		return t.sup.Command(room, user, text)
	}
	m := t.tr.message()
	root := m.begin(spSupervise, -1)
	defer func() {
		m.end(root)
		t.tr.commit(m)
	}()

	sp := m.begin(spClassify, root)
	tokens := linkgrammar.Tokenize(text)
	cls := sentence.Classify(tokens, linkgrammar.EndsWithQuestionMark(text))
	m.end(sp)

	sp = m.begin(spExtract, root)
	matches := snap.ExtractTerms(tokens)
	topics := make([]string, 0, len(matches))
	for _, tm := range matches {
		topics = append(topics, tm.Item.Name)
	}
	m.end(sp)

	if cls.Pattern.IsQuestion() {
		sp = m.begin(spQA, root)
		ans := t.sup.QA().AskWith(snap, text)
		m.end(sp)
		var out []chat.Response
		if ans.Answered {
			out = append(out, chat.Response{Agent: core.AgentQA, Text: ans.Text})
		}
		t.record(m, root, room, user, text, tokens, cls, corpus.VerdictQuestion, topics, nil)
		return out
	}

	if len(tokens) > 0 {
		sp = m.begin(spParse, root)
		_, err := t.sup.Parser().ParseTokens(tokens)
		m.end(sp)
		if err != nil {
			return nil
		}
		t.tr.explicitParses.Add(1)
	}
	sp = m.begin(spCheck, root)
	rep, err := t.angel.CheckTokens(snap, text, tokens)
	m.end(sp)
	if err != nil {
		return nil
	}
	if rep.Linkage != nil {
		cls = sentence.Refine(cls, rep.Linkage)
	}
	if !rep.OK {
		sp = m.begin(spSuggest, root)
		sugg := t.sup.Corpus().Suggest(tokens, rep.Topics, angel.DefaultOptions().MaxSuggestions)
		m.end(sp)
		comment := rep.Comment
		if len(sugg) > 0 {
			comment += suggestionMark + sugg[0].Record.Text + `"`
		}
		var out []chat.Response
		if comment != "" {
			out = append(out, chat.Response{Agent: core.AgentAngel, Text: comment, Private: true})
		}
		t.record(m, root, room, user, text, tokens, cls, corpus.VerdictSyntaxError, topics, rep.Tags)
		return out
	}

	sp = m.begin(spSemantic, root)
	sem := t.sup.Semantic().AnalyzeWith(snap, cls)
	m.end(sp)
	verdict := corpus.VerdictCorrect
	var out []chat.Response
	if sem.Verdict == semantic.VerdictInterrogative {
		verdict = corpus.VerdictSemanticError
		msg := sem.Explanation
		if sem.Suggestion != "" {
			msg += " — hint: " + sem.Suggestion
		}
		out = append(out, chat.Response{Agent: core.AgentSemantic, Text: msg, Private: true})
	}
	t.record(m, root, room, user, text, tokens, cls, verdict, topics, nil)
	return out
}

// record makes the supervisor's record calls: the statistic analyzer,
// the learner corpus, the corpora generator and the profiles.
func (t *traced) record(m *msgTrace, parent int, room, user, text string, tokens []string,
	cls sentence.Classification, v corpus.Verdict, topics, tags []string) {
	sp := m.begin(spRecord, parent)
	ev := stats.Event{
		Time: time.Now(), Room: room, User: user, Text: text, Tokens: tokens,
		Verdict: v, Pattern: cls.Pattern, Tags: tags, Topics: topics,
	}
	t.sup.Analyzer().Record(ev)
	add := m.begin(spAdd, sp)
	t.sup.Corpus().Add(corpus.Record{
		Time: ev.Time, Room: room, User: user, Text: text, Tokens: tokens,
		Verdict: v, Topics: topics, Tags: tags,
	})
	m.end(add)
	t.gen.Consume(ev)
	p := t.sup.Profiles()
	p.RecordMessage(user, topics)
	switch v {
	case corpus.VerdictSyntaxError:
		p.RecordSyntaxError(user, tags...)
	case corpus.VerdictSemanticError:
		p.RecordSemanticError(user, "ontology-violation")
	case corpus.VerdictQuestion:
		p.RecordQuestion(user)
	}
	m.end(sp)
}

// addSays adds each sent line's chat.Say call as a root span.
func (t *tracer) addSays(trackers []*tracker) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tk := range trackers {
		tk.mu.Lock()
		for i := range tk.lines {
			l := &tk.lines[i]
			if l.sayEnd > l.sent {
				t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: -1, Msg: -1, Name: spSay, Start: l.sent, End: l.sayEnd})
			}
		}
		tk.mu.Unlock()
	}
}

// layerStat is one span name's totals.
type layerStat struct {
	calls       int
	total, self time.Duration
	durs        []time.Duration
}

// layerStats sums each span name's calls, time and self time (its
// duration minus the part its child spans cover), and how much of the
// supervise spans the stage spans cover.
func (t *tracer) layerStats() (st [numSpans]layerStat, coverage float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		l := &st[s.Name]
		l.calls++
		l.total += d
		l.self += d - child[i]
		l.durs = append(l.durs, d)
	}
	var covered time.Duration
	for i, s := range t.spans {
		if s.Name == spSupervise {
			covered += child[i]
		}
	}
	if sup := st[spSupervise].total; sup > 0 {
		coverage = float64(covered) / float64(sup)
	}
	return st, coverage
}

func (l layerStat) meanUS() float64 {
	if l.calls == 0 {
		return 0
	}
	return us(l.total) / float64(l.calls)
}

// layers computes the per-layer metrics of a finished traced round from
// its spans and the layers' own public counters.
func (t *tracer) layers(st *stack, cnt *counter, trackers []*tracker, res *roundResult) map[string]float64 {
	t.addSays(trackers)
	ls, coverage := t.layerStats()
	msgs := float64(ls[spSupervise].calls)
	per := func(x float64) float64 {
		if msgs == 0 {
			return 0
		}
		return x / msgs
	}
	share := func(name int) float64 {
		if ls[spSupervise].total == 0 {
			return 0
		}
		return float64(ls[name].total) / float64(ls[spSupervise].total)
	}
	cs := st.sup.Parser().CacheStats()
	extra := t.explicitParses.Load()
	lookups := cs.Hits + cs.Misses - extra
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(cs.Hits-extra) / float64(lookups)
	}
	js := st.mgr.Stats()
	snap := st.reg.Snapshot()
	ps, _ := st.server.SupervisionStats()
	batch := 0.0
	if b := cnt.batches.Load(); b > 0 {
		batch = float64(cnt.batched.Load()) / float64(b)
	}
	fanout := 0.0
	if n := counterValue(snap, "semagent_chat_messages_total"); n > 0 {
		fanout = float64(counterValue(snap, "semagent_chat_fanout_total")) / float64(n)
	}
	return map[string]float64{
		"corpus.suggest_p50_us":       us(quantile(ls[spSuggest].durs, 0.50)),
		"corpus.suggest_p99_us":       us(quantile(ls[spSuggest].durs, 0.99)),
		"corpus.suggest_calls":        float64(ls[spSuggest].calls),
		"corpus.suggest_share":        share(spSuggest),
		"corpus.add_us":               ls[spAdd].meanUS(),
		"corpus.records_start":        float64(res.open.recordsStart),
		"corpus.records_end":          float64(res.closed.recordsEnd),
		"linkgrammar.parse_us":        ls[spParse].meanUS(),
		"linkgrammar.parses_per_msg":  per(float64(lookups)),
		"linkgrammar.cache_hit_ratio": hitRatio,
		"angel.check_self_us":         us(ls[spCheck].self) / float64(max(ls[spCheck].calls, 1)),
		"semantic.analyze_us":         ls[spSemantic].meanUS(),
		"qa.ask_us":                   ls[spQA].meanUS(),
		"ontology.extract_terms_us":   ls[spExtract].meanUS(),
		"stats.record_us":             ls[spRecord].meanUS(),
		"journal.records_per_msg":     per(float64(js.Records)),
		"journal.fsyncs":              float64(js.Fsyncs),
		"journal.checkpoints":         float64(js.Checkpoints),
		"journal.append_p99_us":       float64(histogram(snap, "semagent_journal_append_seconds").P99) / 1e3,
		"journal.fsync_p99_ms":        float64(histogram(snap, "semagent_journal_fsync_seconds").P99) / 1e6,
		"pipeline.queue_wait_p50_ms":  float64(histogram(snap, "semagent_pipeline_queue_wait_seconds").P50) / 1e6,
		"pipeline.queue_wait_p99_ms":  float64(histogram(snap, "semagent_pipeline_queue_wait_seconds").P99) / 1e6,
		"pipeline.batch_size_mean":    batch,
		"pipeline.blocked":            float64(ps.Blocked),
		"chat.say_p50_us":             us(quantile(ls[spSay].durs, 0.50)),
		"chat.broadcast_p50_us":       float64(histogram(snap, "semagent_chat_broadcast_seconds").P50) / 1e3,
		"chat.fanout_per_msg":         fanout,
		"gen.late_p99_ms":             ms(quantile(res.open.late, 0.99)),
		"runtime.gc_pause_ms":         ms(res.gcPause),
		"trace.span_coverage":         coverage,
	}
}

func histogram(s metrics.Snapshot, name string) metrics.SeriesSnapshot {
	for _, f := range s.Families {
		if f.Name == name && len(f.Series) > 0 {
			return f.Series[0]
		}
	}
	return metrics.SeriesSnapshot{}
}

func counterValue(s metrics.Snapshot, name string) int64 {
	var v int64
	for _, f := range s.Families {
		if f.Name == name {
			for _, ser := range f.Series {
				v += ser.Value
			}
		}
	}
	return v
}

// writeTable prints the per-layer table: calls, total and self time,
// mean per call, and self time as a share of the supervise spans.
func (t *tracer) writeTable(w io.Writer) {
	ls, coverage := t.layerStats()
	sup := ls[spSupervise].total
	fmt.Fprintf(w, "%-24s %9s %11s %11s %10s %8s\n", "span", "calls", "total_ms", "self_ms", "mean_us", "self%sup")
	order := make([]int, 0, numSpans)
	for i := 0; i < numSpans; i++ {
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool { return ls[order[a]].self > ls[order[b]].self })
	for _, i := range order {
		l := ls[i]
		if l.calls == 0 {
			continue
		}
		pct := 0.0
		if sup > 0 && i != spSay {
			pct = 100 * float64(l.self) / float64(sup)
		}
		fmt.Fprintf(w, "%-24s %9d %11.1f %11.1f %10.2f %7.1f%%\n", spanNames[i], l.calls, ms(l.total), ms(l.self), l.meanUS(), pct)
	}
	fmt.Fprintf(w, "stage spans cover %.1f%% of the supervise spans\n", 100*coverage)
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	var b []byte
	for _, s := range t.spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(s.ID), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.Parent), 10)
		b = append(b, `,"msg":`...)
		b = strconv.AppendInt(b, int64(s.Msg), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.Name]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, int64(s.Start), 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, int64(s.End), 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
