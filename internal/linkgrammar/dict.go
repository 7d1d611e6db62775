package linkgrammar

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Dictionary maps words to their linking requirements. The text format
// follows the CMU dictionary style:
//
//	% comment until end of line
//	the a: D+;
//	cat dog: {@A-} & {D-} & (Wd- & S+ or O- or J-);
//	<trans-verb>: S- & {O+};
//	push pop: <trans-verb> or (I- & {O+});
//
// An entry lists one or more words (or one "<macro>" name), a colon, a
// formula and a terminating semicolon. Macros may be referenced from any
// formula and are resolved when disjuncts are built.
type Dictionary struct {
	// mu guards every field: the chat server parses from many
	// connection goroutines while disjunct caches fill lazily.
	mu      sync.RWMutex
	entries map[string]*Expr // word -> formula
	macros  map[string]*Expr // macro name -> formula

	// words caches the expansion of each defined word that has been
	// looked up. Undefined words share numberWord and unknownWord
	// instead, so a stream of distinct typos does not grow the cache.
	words       map[string]*wordEntry
	numberWord  *wordEntry
	unknownWord *wordEntry
	interner    *connInterner
	// slot is groupHeads' scratch for building word entries.
	slot []int32

	// unknownMacro, when non-empty, names the macro whose formula is
	// assigned to words missing from the dictionary (the paper's system
	// must keep working when learners type unknown words).
	unknownMacro string

	// gen counts definition changes; parse caches compare it to flush
	// entries parsed under an older vocabulary.
	gen uint64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		entries:  make(map[string]*Expr),
		macros:   make(map[string]*Expr),
		words:    make(map[string]*wordEntry),
		interner: newConnInterner(),
	}
}

// LoadString parses dictionary source text into the dictionary, merging
// with existing entries. Later definitions of a word extend earlier ones
// as alternatives (joined with "or").
func (d *Dictionary) LoadString(src string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++
	// A statement may redefine the macros the shared expansions of
	// undefined words were built from.
	d.numberWord, d.unknownWord = nil, nil
	stripped := stripComments(src)
	statements := splitStatements(stripped)
	for i, stmt := range statements {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		colon := strings.Index(stmt, ":")
		if colon < 0 {
			return fmt.Errorf("dictionary statement %d (%q): missing ':'", i+1, clip(stmt))
		}
		heads := strings.Fields(stmt[:colon])
		if len(heads) == 0 {
			return fmt.Errorf("dictionary statement %d: no words before ':'", i+1)
		}
		formula, err := ParseFormula(stmt[colon+1:])
		if err != nil {
			return fmt.Errorf("dictionary statement %d: %w", i+1, err)
		}
		for _, head := range heads {
			if strings.HasPrefix(head, "<") && strings.HasSuffix(head, ">") {
				name := head[1 : len(head)-1]
				d.macros[name] = mergeOr(d.macros[name], formula)
				continue
			}
			word := normalizeWord(head)
			d.entries[word] = mergeOr(d.entries[word], formula)
			delete(d.words, word)
		}
	}
	return nil
}

// SetUnknownWordMacro designates a macro whose formula is used for words
// absent from the dictionary. Pass "" to disable the fallback.
func (d *Dictionary) SetUnknownWordMacro(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if name != "" {
		if _, ok := d.macros[name]; !ok {
			return fmt.Errorf("unknown-word macro <%s> is not defined", name)
		}
	}
	d.unknownMacro = name
	d.unknownWord = nil
	d.gen++
	return nil
}

// Generation returns a counter incremented by every definition change
// (LoadString, Define, SetUnknownWordMacro). Parse caches key their
// validity on it.
func (d *Dictionary) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// Define adds a single word with the given formula source, merging with
// any existing definition. The ontology loader uses this to teach the
// parser new domain terms at runtime.
func (d *Dictionary) Define(word, formulaSrc string) error {
	formula, err := ParseFormula(formulaSrc)
	if err != nil {
		return fmt.Errorf("define %q: %w", word, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++
	word = normalizeWord(word)
	d.entries[word] = mergeOr(d.entries[word], formula)
	delete(d.words, word)
	return nil
}

// Has reports whether the word has an explicit dictionary entry.
func (d *Dictionary) Has(word string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.entries[normalizeWord(word)]
	return ok
}

// Len returns the number of defined word forms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Words returns the sorted list of defined word forms.
func (d *Dictionary) Words() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.entries))
	for w := range d.entries {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// wordEntry is one word's expansion: its disjuncts in parse order and
// the same disjuncts grouped by head cell.
type wordEntry struct {
	ds    []*Disjunct
	heads headIndex
}

// Disjuncts returns the expanded disjunct list for a word. Unknown words
// receive the unknown-word macro's disjuncts when configured, otherwise
// nil, which the parser reports as an unknown word.
func (d *Dictionary) Disjuncts(word string) ([]*Disjunct, error) {
	word = normalizeWord(word)
	d.mu.RLock()
	e, ok := d.cachedLocked(word)
	d.mu.RUnlock()
	if !ok {
		d.mu.Lock()
		defer d.mu.Unlock()
		var err error
		if e, err = d.entryLocked(word); err != nil {
			return nil, err
		}
	}
	if e == nil {
		return nil, nil
	}
	return e.ds, nil
}

// dictView is what one parse reads from the dictionary besides the
// word entries, taken in the same critical section so that the table
// sizes cover every id the entries hold.
type dictView struct {
	// cells and conns are the interner's per-direction cell and
	// connector counts (index Dir-1): cell ids run from 1 to cells,
	// connector ids from 0 to conns-1.
	cells, conns [2]int32
}

// view resolves every word of a sentence under one read lock: ents[i]
// receives words[i]'s entry (nil when it has no disjuncts), and unknown
// lists, as token indices, the words with no dictionary entry (words[0]
// is the wall and never reported). Only when some expansion is not
// cached yet does it retake the write lock to build.
func (d *Dictionary) view(words []string, ents []*wordEntry) (v dictView, unknown []int, err error) {
	d.mu.RLock()
	v, unknown, err = d.viewLocked(words, ents, false)
	d.mu.RUnlock()
	if err != errNotCached {
		return v, unknown, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.viewLocked(words, ents, true)
}

// errNotCached stops a read-locked view at the first word whose
// expansion must be built.
var errNotCached = errors.New("linkgrammar: expansion not cached")

func (d *Dictionary) viewLocked(words []string, ents []*wordEntry, build bool) (dictView, []int, error) {
	var unknown []int
	for i, w := range words {
		w = normalizeWord(w)
		e, ok := d.cachedLocked(w)
		if !ok {
			if !build {
				return dictView{}, nil, errNotCached
			}
			var err error
			if e, err = d.entryLocked(w); err != nil {
				return dictView{}, nil, err
			}
		}
		ents[i] = e
		if _, defined := d.entries[w]; !defined && i > 0 {
			unknown = append(unknown, i-1)
		}
	}
	in := d.interner
	return dictView{cells: in.nCells, conns: in.nConns}, unknown, nil
}

// cachedLocked returns a normalized word's entry; ok is false when the
// entry must first be built under the write lock.
func (d *Dictionary) cachedLocked(word string) (e *wordEntry, ok bool) {
	if _, defined := d.entries[word]; defined {
		e, ok = d.words[word]
		return e, ok
	}
	slot, _ := d.sharedLocked(word)
	if slot == nil {
		return nil, true
	}
	return *slot, *slot != nil
}

// sharedLocked returns the slot holding the expansion an undefined word
// shares and the macro it is built from, or a nil slot when the word
// has no expansion at all.
func (d *Dictionary) sharedLocked(word string) (**wordEntry, string) {
	if _, ok := d.macros["number"]; ok && isNumeric(word) {
		return &d.numberWord, "number"
	}
	if d.unknownMacro == "" {
		return nil, ""
	}
	return &d.unknownWord, d.unknownMacro
}

// entryLocked returns a normalized word's entry, expanding and caching
// it on first use. The write lock must be held.
func (d *Dictionary) entryLocked(word string) (*wordEntry, error) {
	if e, ok := d.cachedLocked(word); ok {
		return e, nil
	}
	formula, defined := d.entries[word]
	var slot **wordEntry
	if !defined {
		var macro string
		slot, macro = d.sharedLocked(word)
		formula = d.macros[macro]
	}
	ds, err := buildDisjuncts(formula, d.resolveMacro)
	if err != nil {
		return nil, fmt.Errorf("word %q: %w", word, err)
	}
	for _, dj := range ds {
		dj.finalize(d.interner)
	}
	e := &wordEntry{ds: ds}
	in := d.interner
	d.slot = resize(d.slot, int(max(in.nCells[0], in.nCells[1]))+1)
	groupHeads(&e.heads, ds, d.slot)
	if slot != nil {
		*slot = e
	} else {
		d.words[word] = e
	}
	return e, nil
}

func (d *Dictionary) resolveMacro(name string) (*Expr, error) {
	e, ok := d.macros[name]
	if !ok {
		return nil, fmt.Errorf("undefined macro <%s>", name)
	}
	return e, nil
}

// mergeOr combines an existing formula with an additional alternative.
func mergeOr(existing, extra *Expr) *Expr {
	if existing == nil {
		return extra
	}
	return &Expr{kind: exprOr, subs: []*Expr{existing, extra}}
}

// stripComments removes '%' line comments.
func stripComments(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	inComment := false
	for i := 0; i < len(src); i++ {
		switch {
		case inComment:
			if src[i] == '\n' {
				inComment = false
				b.WriteByte('\n')
			}
		case src[i] == '%':
			inComment = true
		default:
			b.WriteByte(src[i])
		}
	}
	return b.String()
}

func splitStatements(src string) []string {
	return strings.Split(src, ";")
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}

// normalizeWord lower-cases a word for dictionary lookup. The pronoun "I"
// is stored lower-cased too; tokenization handles case folding.
func normalizeWord(w string) string {
	return strings.ToLower(w)
}

// isNumeric reports whether the token is a plain number like "42".
func isNumeric(w string) bool {
	if w == "" {
		return false
	}
	for i := 0; i < len(w); i++ {
		if w[i] < '0' || w[i] > '9' {
			return false
		}
	}
	return true
}
