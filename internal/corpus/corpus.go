// Package corpus implements the Learner Corpus database of the paper:
// every supervised utterance is recorded with its verdict and tags, and
// the store answers the Learning_Angel's "suitable sentence" queries —
// given a broken sentence, retrieve similar correct sentences to show
// the learner.
package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"semagent/internal/sentence"
)

// Verdict classifies a recorded utterance.
type Verdict int8

// Verdicts attached to corpus records.
const (
	VerdictUnknown       Verdict = iota // not yet assessed
	VerdictCorrect                      // parsed and semantically plausible
	VerdictSyntaxError                  // rejected by the Learning_Angel
	VerdictSemanticError                // the paper's "Interrogative Sentence"
	VerdictQuestion                     // routed to the QA system
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictCorrect:
		return "correct"
	case VerdictSyntaxError:
		return "syntax-error"
	case VerdictSemanticError:
		return "semantic-error"
	case VerdictQuestion:
		return "question"
	default:
		return "unknown"
	}
}

// Record is one corpus entry.
type Record struct {
	ID      int64     `json:"id"`
	Time    time.Time `json:"time"`
	Room    string    `json:"room,omitempty"`
	User    string    `json:"user,omitempty"`
	Text    string    `json:"text"`
	Tokens  []string  `json:"tokens"`
	Verdict Verdict   `json:"verdict"`
	// ErrorTokens indexes Tokens the parser had to skip (grammar-error
	// locations).
	ErrorTokens []int `json:"errorTokens,omitempty"`
	// Topics are the ontology terms mentioned.
	Topics []string `json:"topics,omitempty"`
	// Tags carries free-form labels ("agreement", "determiner", ...).
	Tags []string `json:"tags,omitempty"`
}

// Observer is the write-ahead-log hook: it receives every mutation
// (the final record, ID assigned) and returns the log sequence number
// the mutation was journaled under. It is invoked while the store lock
// is held, so the store's state and its JournalLSN always move
// together — the durability subsystem (internal/journal) relies on
// that atomicity to take exact checkpoints. A nil observer disables
// journaling.
type Observer func(Record) uint64

// Store is the in-memory learner corpus with a grouped suggestion
// index (see Suggest).
type Store struct {
	mu      sync.RWMutex
	records []*Record
	byID    map[int64]*Record
	nextID  int64

	// The suggestion index covers correct records only. Records with
	// the same content-token set and the same Topics list score alike
	// against every query, so they share one group; postings map a
	// content token to the ordinals of the groups holding it. Groups
	// are never removed: one emptied by a Put replacement stays in
	// place, skipped by Suggest, until a record with its key returns.
	groups     []suggestGroup
	byKey      map[string]int32   // groupKey encoding -> ordinal
	postings   map[string][]int32 // content token -> group ordinals
	liveGroups int                // groups with at least one member

	// keyBuf and setBuf are index-maintenance scratch, used only under
	// the write lock.
	keyBuf []byte
	setBuf []string

	suggestCalls atomic.Int64
	groupsScored atomic.Int64

	// observer and lsn implement the journal hook: lsn is the highest
	// WAL sequence number reflected in the store's state, persisted by
	// SaveJSONL and used on recovery to skip already-applied records.
	observer Observer
	lsn      uint64
}

// suggestGroup is one class of interchangeable suggestion candidates.
type suggestGroup struct {
	contentLen int      // size of the shared content-token set
	topics     []string // the shared Topics list, order and duplicates kept
	ids        []int64  // member record IDs, ascending
}

// SetObserver installs the journal hook (nil to detach).
func (s *Store) SetObserver(fn Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// JournalLSN returns the highest WAL sequence number reflected in the
// store's state (0 when the store has never been journaled).
func (s *Store) JournalLSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lsn
}

// SetJournalLSN records the WAL position the state corresponds to
// (used by recovery after replaying the journal).
func (s *Store) SetJournalLSN(v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lsn = v
}

// NewStore returns an empty corpus.
func NewStore() *Store {
	return &Store{
		byID:     make(map[int64]*Record),
		byKey:    make(map[string]int32),
		postings: make(map[string][]int32),
		nextID:   1,
	}
}

// Add records an utterance and returns its assigned ID. The record is
// copied; the caller keeps ownership of its argument.
func (s *Store) Add(r Record) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.ID = s.nextID
	s.nextID++
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	rec := r
	rec.Tokens = append([]string(nil), r.Tokens...)
	rec.ErrorTokens = append([]int(nil), r.ErrorTokens...)
	rec.Topics = append([]string(nil), r.Topics...)
	rec.Tags = append([]string(nil), r.Tags...)
	s.records = append(s.records, &rec)
	s.byID[rec.ID] = &rec
	s.index(&rec)
	if s.observer != nil {
		s.lsn = s.observer(rec)
	}
	return rec.ID
}

// Put inserts a record under its explicit ID, replacing any existing
// record with that ID (last write wins). It is the journal-replay
// counterpart of Add: IDs come from the log, not the store's counter,
// and the observer is not notified.
func (s *Store) Put(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(r)
}

func (s *Store) putLocked(r Record) {
	stored := r
	stored.Tokens = append([]string(nil), r.Tokens...)
	stored.ErrorTokens = append([]int(nil), r.ErrorTokens...)
	stored.Topics = append([]string(nil), r.Topics...)
	stored.Tags = append([]string(nil), r.Tags...)
	if old, ok := s.byID[stored.ID]; ok {
		// Replace in place: the records slice and byID share the
		// *Record, so only the index entry has to move.
		s.unindex(old)
		*old = stored
	} else {
		s.records = append(s.records, &stored)
		s.byID[stored.ID] = &stored
	}
	rec := s.byID[stored.ID]
	s.index(rec)
	if rec.ID >= s.nextID {
		s.nextID = rec.ID + 1
	}
}

// groupKey encodes r's suggestion-group key into s.keyBuf and leaves
// its sorted content-token set in s.setBuf. It reports false when r
// is not indexed: only correct records with at least one content token
// can ever be suggested.
func (s *Store) groupKey(r *Record) bool {
	if r.Verdict != VerdictCorrect {
		return false
	}
	s.setBuf = appendContentSet(s.setBuf[:0], r.Tokens)
	if len(s.setBuf) == 0 {
		return false
	}
	// Length-prefixed, so no token or topic text can forge a boundary.
	buf := binary.AppendUvarint(s.keyBuf[:0], uint64(len(s.setBuf)))
	for _, t := range s.setBuf {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	for _, t := range r.Topics {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	s.keyBuf = buf
	return true
}

// index adds r to its suggestion group, creating the group on first
// sight of its key. Callers hold the write lock.
func (s *Store) index(r *Record) {
	if !s.groupKey(r) {
		return
	}
	g, ok := s.byKey[string(s.keyBuf)]
	if !ok {
		g = int32(len(s.groups))
		s.groups = append(s.groups, suggestGroup{contentLen: len(s.setBuf), topics: slices.Clone(r.Topics)})
		s.byKey[string(s.keyBuf)] = g
		for _, t := range s.setBuf {
			s.postings[t] = append(s.postings[t], g)
		}
	}
	grp := &s.groups[g]
	if len(grp.ids) == 0 {
		s.liveGroups++
	}
	i, _ := slices.BinarySearch(grp.ids, r.ID)
	grp.ids = slices.Insert(grp.ids, i, r.ID)
}

// unindex removes r from its suggestion group. Callers hold the write
// lock.
func (s *Store) unindex(r *Record) {
	if !s.groupKey(r) {
		return
	}
	grp := &s.groups[s.byKey[string(s.keyBuf)]]
	if i, ok := slices.BinarySearch(grp.ids, r.ID); ok {
		grp.ids = slices.Delete(grp.ids, i, i+1)
		if len(grp.ids) == 0 {
			s.liveGroups--
		}
	}
}

// Stats is a snapshot of a store's size and suggestion-index counters.
type Stats struct {
	// Records counts stored records of every verdict.
	Records int
	// Groups counts non-empty suggestion groups: distinct (content-
	// token set, Topics) keys among the correct records.
	Groups int
	// SuggestCalls counts Suggest calls with a non-empty query.
	SuggestCalls int64
	// GroupsScored counts groups scored across those calls — the
	// candidates a suggestion actually examined.
	GroupsScored int64
}

// Stats reports the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:      len(s.records),
		Groups:       s.liveGroups,
		SuggestCalls: s.suggestCalls.Load(),
		GroupsScored: s.groupsScored.Load(),
	}
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// ByID returns a copy of the record with the given ID.
func (s *Store) ByID(id int64) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byID[id]
	if !ok {
		return Record{}, false
	}
	return *r, true
}

// All returns copies of every record in insertion order.
func (s *Store) All() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, len(s.records))
	for i, r := range s.records {
		out[i] = *r
	}
	return out
}

// CountByVerdict aggregates record counts per verdict.
func (s *Store) CountByVerdict() map[Verdict]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Verdict]int)
	for _, r := range s.records {
		out[r.Verdict]++
	}
	return out
}

// Suggestion is a corpus sentence offered to a learner.
type Suggestion struct {
	Record Record
	Score  float64
}

// Suggest returns up to limit correct corpus sentences similar to the
// given tokens, best first. Similarity is a weighted Jaccard overlap of
// content tokens with a bonus for shared ontology topics — the
// "search for the suitable sentences from Learner Corpus" step of the
// paper's Figure 4.
//
// The search runs over suggestion groups, not records: every member
// of a group has the same content-token set and Topics list, hence
// the same score, so each group touched by a query token is scored
// once and offers its lowest IDs to a bounded top-limit list ordered
// by (score desc, ID asc). Only the winners' Records are copied. The
// result is exactly what scoring every correct record would give.
func (s *Store) Suggest(tokens []string, topics []string, limit int) []Suggestion {
	if limit <= 0 {
		limit = 3
	}
	sc := suggestScratchPool.Get().(*suggestScratch)
	defer suggestScratchPool.Put(sc)
	sc.query = appendContentSet(sc.query[:0], tokens)
	query := sc.query
	if len(query) == 0 {
		return nil
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	// Count shared tokens per group in a dense counter; touched lists
	// the non-zero entries so they can be scored and reset.
	if len(sc.shared) < len(s.groups) {
		sc.shared = make([]int32, len(s.groups))
	}
	touched := sc.touched[:0]
	for _, t := range query {
		for _, g := range s.postings[t] {
			if sc.shared[g] == 0 {
				touched = append(touched, g)
			}
			sc.shared[g]++
		}
	}
	sc.touched = touched
	s.suggestCalls.Add(1)
	s.groupsScored.Add(int64(len(touched)))

	top := sc.top[:0]
	for _, g := range touched {
		shared := int(sc.shared[g])
		sc.shared[g] = 0
		grp := &s.groups[g]
		if len(grp.ids) == 0 {
			continue
		}
		union := grp.contentLen + len(query) - shared
		score := float64(shared) / float64(union)
		if len(top) == limit {
			// Every topic hit adds 0.25, added in the same order as
			// below, so bound is never below the final score: a group
			// that cannot reach the last place skips the topic scan.
			bound := score
			for range grp.topics {
				bound += 0.25
			}
			if bound < top[limit-1].score {
				continue
			}
		}
		for _, topic := range grp.topics {
			if slices.Contains(topics, topic) {
				score += 0.25
			}
		}
		// Members tie on score, so ascending IDs enter in rank order and
		// the first one refused ends the group.
		for _, id := range grp.ids {
			var ok bool
			if top, ok = offer(top, limit, scored{id: id, score: score}); !ok {
				break
			}
		}
	}
	sc.top = top
	if len(top) == 0 {
		return nil
	}
	out := make([]Suggestion, len(top))
	for i, c := range top {
		out[i] = Suggestion{Record: *s.byID[c.id], Score: c.score}
	}
	return out
}

// scored is a suggestion candidate before its Record is copied.
type scored struct {
	id    int64
	score float64
}

// offer inserts c into top, kept sorted by (score desc, ID asc) and
// at most limit long, and reports whether c made the cut.
func offer(top []scored, limit int, c scored) ([]scored, bool) {
	i := len(top)
	for i > 0 && (top[i-1].score < c.score || top[i-1].score == c.score && top[i-1].id > c.id) {
		i--
	}
	if i >= limit {
		return top, false
	}
	if len(top) == limit {
		top = top[:limit-1]
	}
	return slices.Insert(top, i, c), true
}

// suggestScratch is Suggest's per-call working memory, pooled because
// Suggest runs under the read lock and so may run concurrently.
type suggestScratch struct {
	query   []string
	shared  []int32 // group ordinal -> shared query tokens, all zero between calls
	touched []int32
	top     []scored
}

var suggestScratchPool = sync.Pool{New: func() any { return new(suggestScratch) }}

// ByTopic returns copies of records mentioning the given ontology term.
func (s *Store) ByTopic(topic string) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, r := range s.records {
		for _, t := range r.Topics {
			if t == topic {
				out = append(out, *r)
				break
			}
		}
	}
	return out
}

// jsonlHeader is the optional first line of a journaled JSONL store
// file, recording the WAL position the snapshot corresponds to.
type jsonlHeader struct {
	JournalLSN uint64 `json:"journalLSN"`
}

// jsonlHeaderPrefix distinguishes the header from record lines (records
// never start with this key).
const jsonlHeaderPrefix = `{"journalLSN":`

// SaveJSONL writes the corpus as JSON lines. When the store has been
// journaled, a header line records the WAL position the snapshot
// covers; loaders without journaling simply skip it.
func (s *Store) SaveJSONL(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if s.lsn > 0 {
		if err := enc.Encode(jsonlHeader{JournalLSN: s.lsn}); err != nil {
			return fmt.Errorf("encode corpus header: %w", err)
		}
	}
	for _, r := range s.records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("encode corpus record %d: %w", r.ID, err)
		}
	}
	return bw.Flush()
}

// LoadJSONL reads JSON lines into a fresh store, preserving record IDs.
// Duplicate IDs resolve last-write-wins (a journal replayed over a
// checkpoint may legitimately rewrite a record), so Len/All/
// CountByVerdict never double-count.
func LoadJSONL(r io.Reader) (*Store, error) {
	s := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if bytes.HasPrefix(text, []byte(jsonlHeaderPrefix)) {
			var h jsonlHeader
			if err := json.Unmarshal(text, &h); err != nil {
				return nil, fmt.Errorf("corpus header line %d: %w", line, err)
			}
			s.lsn = h.JournalLSN
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("corpus line %d: %w", line, err)
		}
		s.putLocked(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	return s, nil
}

// appendContentSet appends the distinct content tokens of tokens to
// dst in sorted order.
func appendContentSet(dst []string, tokens []string) []string {
	start := len(dst)
	for _, t := range tokens {
		if !sentence.Stopwords[t] {
			dst = append(dst, t)
		}
	}
	set := dst[start:]
	slices.Sort(set)
	return dst[:start+len(slices.Compact(set))]
}
