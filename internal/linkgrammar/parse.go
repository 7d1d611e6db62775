package linkgrammar

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures a Parser.
type Options struct {
	// MaxNulls is the largest number of words the fault-tolerant parser
	// may skip ("null words") before giving up. 0 selects the default
	// budget; a negative value reproduces stock link grammar behaviour
	// (no skipping at all).
	MaxNulls int
	// MaxLinkages caps the number of alternative linkages returned.
	MaxLinkages int
	// MaxTokens rejects absurdly long inputs before the O(n³) parse.
	// Values above 254, the most the parser's memo keys can index, are
	// lowered to 254.
	MaxTokens int
	// DisablePruning turns off the pre-parse disjunct pruning pass
	// (kept only for the pruning ablation benchmark).
	DisablePruning bool
	// CacheSize, when positive, bounds an LRU cache of parse results
	// keyed on the normalized token stream. 0 leaves caching off at
	// this layer (package core turns it on for the supervisor — design
	// decision D6). Cached *Results are shared across callers and must
	// be treated as read-only; the cache is flushed automatically when
	// the dictionary's generation changes.
	CacheSize int
}

// DefaultOptions returns the options used by the e-learning supervisor:
// tolerate up to two broken words and keep the eight cheapest linkages.
func DefaultOptions() Options {
	return Options{MaxNulls: 2, MaxLinkages: 8, MaxTokens: 40}
}

// Parser parses sentences against a dictionary. A Parser is safe for
// concurrent use: each parse builds its own state, the dictionary
// guards its lazy disjunct expansion, and the optional result cache
// locks internally.
type Parser struct {
	dict  *Dictionary
	opts  Options
	cache *parseCache // nil when Options.CacheSize <= 0

	// scratch pools per-parse working state (cache-key buffer, disjunct
	// table, memoization map) so the steady-state parse path — the same
	// workload the cache stats describe — reuses its large containers
	// instead of reallocating them per sentence. Pooled scratch never
	// escapes: everything a Result or Linkage retains (words, tokens,
	// links) is freshly allocated.
	scratch   sync.Pool
	countHint atomic.Int64 // running average of memo-map size, sizes fresh maps
}

// parseScratch is the pooled working state of one ParseTokens call.
type parseScratch struct {
	key  []byte
	ents []*wordEntry
	st   parseState
}

// NewParser returns a parser over dict with the given options. Zero
// option fields fall back to DefaultOptions values.
func NewParser(dict *Dictionary, opts Options) *Parser {
	def := DefaultOptions()
	if opts.MaxLinkages <= 0 {
		opts.MaxLinkages = def.MaxLinkages
	}
	if opts.MaxTokens <= 0 {
		opts.MaxTokens = def.MaxTokens
	}
	if opts.MaxTokens > maxTokensLimit {
		opts.MaxTokens = maxTokensLimit
	}
	switch {
	case opts.MaxNulls == 0:
		opts.MaxNulls = def.MaxNulls
	case opts.MaxNulls < 0:
		opts.MaxNulls = 0
	}
	p := &Parser{dict: dict, opts: opts}
	p.scratch.New = func() any { return new(parseScratch) }
	if opts.CacheSize > 0 {
		p.cache = newParseCache(opts.CacheSize)
	}
	return p
}

// releaseScratch clears the references pooled scratch holds to the
// sentence's dictionary entries and returns it to the pool, folding the
// observed memo size into the sizing hint for fresh maps. The regrouped
// head lists in st.own keep their connector cells, which live as long
// as the dictionary anyway, so their storage is reused as is.
func (p *Parser) releaseScratch(sc *parseScratch) {
	if sc.st.counts != nil {
		hint := p.countHint.Load()
		p.countHint.Store((3*hint + int64(len(sc.st.counts))) / 4)
		clear(sc.st.counts)
	}
	clear(sc.ents)
	clear(sc.st.disjuncts)
	clear(sc.st.heads)
	sc.st.words = nil
	p.scratch.Put(sc)
}

// CacheStats reports the parse-cache counters (zero value when caching
// is disabled).
func (p *Parser) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.stats()
}

// Dictionary returns the dictionary the parser reads.
func (p *Parser) Dictionary() *Dictionary { return p.dict }

// Result is the outcome of parsing one sentence.
type Result struct {
	// Tokens are the words as parsed, LEFT-WALL excluded.
	Tokens []string
	// Linkages holds the valid linkages found, cheapest first. Empty
	// when the sentence does not parse within the null budget.
	Linkages []*Linkage
	// NullCount is the number of words that had to be skipped for the
	// best linkages (0 = fully grammatical).
	NullCount int
	// UnknownWords indexes Tokens that were absent from the dictionary.
	UnknownWords []int
}

// Valid reports whether the sentence parsed without skipping any word.
func (r *Result) Valid() bool { return len(r.Linkages) > 0 && r.NullCount == 0 }

// Best returns the cheapest linkage, or nil if none.
func (r *Result) Best() *Linkage {
	if len(r.Linkages) == 0 {
		return nil
	}
	return r.Linkages[0]
}

// Parse tokenizes and parses a raw sentence.
func (p *Parser) Parse(sentence string) (*Result, error) {
	return p.ParseTokens(Tokenize(sentence))
}

// ParseTokens parses an already-tokenized sentence. The tokens should not
// include LEFT-WALL; it is added internally.
func (p *Parser) ParseTokens(tokens []string) (*Result, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("empty sentence")
	}
	if len(tokens) > p.opts.MaxTokens {
		return nil, fmt.Errorf("sentence has %d tokens, limit is %d", len(tokens), p.opts.MaxTokens)
	}

	sc := p.scratch.Get().(*parseScratch)
	defer p.releaseScratch(sc)

	var gen uint64
	if p.cache != nil {
		sc.key = appendCacheKey(sc.key[:0], tokens)
		gen = p.dict.Generation()
		if res, ok := p.cache.getBytes(sc.key, gen); ok {
			return res, nil
		}
	}

	// words is retained by every Linkage (and res.Tokens aliases it), so
	// it is allocated fresh; the caller's tokens slice is copied here and
	// never retained, which keeps pooled token slices safe to reuse.
	words := make([]string, len(tokens)+1)
	words[0] = LeftWall
	copy(words[1:], tokens)

	res := &Result{Tokens: words[1:]}
	sc.ents = resize(sc.ents, len(words))
	view, unknown, err := p.dict.view(words, sc.ents)
	if err != nil {
		return nil, err
	}
	if max(view.cells[0], view.cells[1]) >= 1<<keyCellBits {
		return nil, fmt.Errorf("dictionary has more than %d connector cells per direction", 1<<keyCellBits-1)
	}
	res.UnknownWords = unknown
	if sc.st.counts == nil {
		sc.st.counts = make(map[uint64]int64, p.countHint.Load())
	}
	st := &sc.st
	st.load(words, sc.ents, view, !p.opts.DisablePruning)

	maxNulls := p.opts.MaxNulls
	if maxNulls > len(tokens)-1 {
		maxNulls = len(tokens) - 1
	}
	if maxNulls < 0 {
		maxNulls = 0
	}
	for nulls := 0; nulls <= maxNulls; nulls++ {
		if st.countTotal(nulls) == 0 {
			continue
		}
		linkages := st.extractTotal(nulls, p.opts.MaxLinkages)
		if len(linkages) == 0 {
			continue
		}
		for _, lk := range linkages {
			lk.Words = words
		}
		sort.SliceStable(linkages, func(i, j int) bool {
			return linkages[i].Cost < linkages[j].Cost
		})
		res.Linkages = linkages
		res.NullCount = nulls
		break
	}
	if p.cache != nil {
		p.cache.put(string(sc.key), res, gen)
	}
	return res, nil
}

// parseState holds the memoized dynamic program for one sentence.
// Internally word 0 is LEFT-WALL and a virtual word len(words) with no
// connectors closes the region on the right.
type parseState struct {
	words []string
	// disjuncts[w] lists word w's disjuncts in the order extract
	// enumerates linkages; heads[w] groups the same disjuncts by head
	// cell for count.
	disjuncts [][]*Disjunct
	heads     []headIndex
	counts    map[uint64]int64

	// matches is a lazily filled table over (right connector id, left
	// connector id) pairs, two bits a pair: 0 not yet compared,
	// matchNo or matchYes. nLeft is the row stride.
	nLeft   uint
	matches []uint64

	// own and slot are the storage for regrouping pruned lists.
	own  []headIndex
	slot []int32
}

// load points the state at one sentence's dictionary entries, prunes
// long sentences (regrouping the words whose lists shrank) and sizes
// the match table from the view's connector counts.
func (st *parseState) load(words []string, ents []*wordEntry, v dictView, prune bool) {
	n := len(words)
	st.words = words
	st.disjuncts = resize(st.disjuncts, n)
	st.heads = resize(st.heads, n)
	for i, e := range ents {
		st.disjuncts[i], st.heads[i] = nil, headIndex{}
		if e != nil {
			st.disjuncts[i], st.heads[i] = e.ds, e.heads
		}
	}
	if prune {
		pruned := pruneDisjuncts(st.disjuncts)
		st.own = resize(st.own, n)
		st.slot = resize(st.slot, int(max(v.cells[0], v.cells[1]))+1)
		for i := range pruned {
			if len(pruned[i]) != len(st.disjuncts[i]) {
				groupHeads(&st.own[i], pruned[i], st.slot)
				st.heads[i] = st.own[i]
			}
		}
		st.disjuncts = pruned
	}

	st.nLeft = uint(v.conns[DirLeft-1])
	st.matches = resize(st.matches, int((uint(v.conns[DirRight-1])*st.nLeft+31)/32))
	clear(st.matches)
}

// resize returns s with length n, reusing its storage when large
// enough. Callers overwrite or clear the elements.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// match is Match for a right-list cell r and a left-list cell l, looked
// up in the per-parse table.
func (st *parseState) match(r, l *connNode) bool {
	i := uint(r.cid)*st.nLeft + uint(l.cid)
	if v := st.matches[i/32] >> (i % 32 * 2) & 3; v != 0 {
		return v == matchYes
	}
	return st.fillMatch(i, r, l)
}

const (
	matchNo  = 1
	matchYes = 3
)

func (st *parseState) fillMatch(i uint, r, l *connNode) bool {
	v := uint64(matchNo)
	if matchNodes(r, l) {
		v = matchYes
	}
	st.matches[i/32] |= v << (i % 32 * 2)
	return v == matchYes
}

// Memo keys pack (a, b, nulls, la, lb) into one uint64: three word
// fields of keyWordBits and two cell-id fields of keyCellBits (ids of
// the right- and left-going cells are numbered separately, and 0 is
// the empty list). maxTokensLimit keeps every word index, the virtual
// right end included, and every null count inside a word field;
// ParseTokens refuses a dictionary whose ids outgrow a cell field.
const (
	keyWordBits = 8
	keyCellBits = 20

	// maxTokensLimit (254) is the largest Options.MaxTokens a Parser
	// honours: LEFT-WALL plus that many tokens is 255 words.
	maxTokensLimit = 1<<keyWordBits - 2
)

func memoKey(a, b, nulls int, la, lb *connNode) uint64 {
	return uint64(a) | uint64(b)<<keyWordBits | uint64(nulls)<<(2*keyWordBits) |
		cellID(la)<<(3*keyWordBits) | cellID(lb)<<(3*keyWordBits+keyCellBits)
}

func cellID(c *connNode) uint64 {
	if c == nil {
		return 0
	}
	return uint64(c.id)
}

const countCap = int64(1) << 40

func satAdd(a, b int64) int64 {
	s := a + b
	if s > countCap {
		return countCap
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > countCap/b {
		return countCap
	}
	return a * b
}

// countTotal counts complete linkages of the whole sentence with exactly
// `nulls` skipped words. LEFT-WALL is never skipped.
func (st *parseState) countTotal(nulls int) int64 {
	var total int64
	n := len(st.words)
	for _, d0 := range st.disjuncts[0] {
		if d0.leftList != nil {
			continue
		}
		total = satAdd(total, st.count(0, n, d0.rightList, nil, nulls))
	}
	return total
}

// count returns the number of linkages of the region strictly between
// words a and b, where la is the remaining right-going connector list of
// a and lb the remaining left-going list of b (both far-to-near), with
// exactly `nulls` inner words skipped.
//
// Decomposition: if la is non-empty its head (a's farthest rightward
// link) attaches either to some inner word w — splitting the region at w
// by planarity — or directly to b's farthest left connector. If la is
// empty, lb's head attaches to the farthest inner word it can reach.
// Ordering of each disjunct's connector lists is preserved because lists
// are consumed far-to-near from both ends. Connectivity holds because a
// region whose two boundary lists are empty admits no links at all, so
// its inner words can only be nulls.
func (st *parseState) count(a, b int, la, lb *connNode, nulls int) int64 {
	if b == a+1 {
		if la == nil && lb == nil && nulls == 0 {
			return 1
		}
		return 0
	}
	if la == nil && lb == nil {
		if nulls == b-a-1 {
			return 1
		}
		return 0
	}
	inner := b - a - 1
	if nulls > inner {
		return 0
	}
	key := memoKey(a, b, nulls, la, lb)
	if v, ok := st.counts[key]; ok {
		return v
	}
	st.counts[key] = 0 // cycle guard; real value set below

	// Disjuncts of one head group share their list on the linking side,
	// so the region between the link's ends counts once per group and
	// multiplies the sum over the members' other lists. Saturating sums
	// and products equal min(countCap, exact value) in any order, so
	// the total is the same as summing disjunct by disjunct.
	var total int64
	if la != nil {
		for w := a + 1; w < b; w++ {
			h := &st.heads[w]
			for _, g := range h.left {
				if !st.match(la, g.head) {
					continue
				}
				vs, nv := matchVariants(la, g.head)
				for _, v := range vs[:nv] {
					for k1 := 0; k1 <= nulls; k1++ {
						left := st.count(a, w, v.x, v.y, k1)
						if left == 0 {
							continue
						}
						var right int64
						for _, dr := range h.rest[g.lo:g.hi] {
							right = satAdd(right, st.count(w, b, dr, lb, nulls-k1))
						}
						total = satAdd(total, satMul(left, right))
					}
				}
			}
		}
		if lb != nil && st.match(la, lb) {
			// Direct link a–b: both heads are the farthest connectors of
			// their words within this region.
			vs, nv := matchVariants(la, lb)
			for _, v := range vs[:nv] {
				total = satAdd(total, st.count(a, b, v.x, v.y, nulls))
			}
		}
	} else { // la == nil, lb != nil
		for w := a + 1; w < b; w++ {
			h := &st.heads[w]
			for _, g := range h.right {
				if !st.match(g.head, lb) {
					continue
				}
				vs, nv := matchVariants(g.head, lb)
				for _, v := range vs[:nv] {
					for k1 := 0; k1 <= nulls; k1++ {
						right := st.count(w, b, v.x, v.y, nulls-k1)
						if right == 0 {
							continue
						}
						var left int64
						for _, dl := range h.rest[g.lo:g.hi] {
							left = satAdd(left, st.count(a, w, nil, dl, k1))
						}
						total = satAdd(total, satMul(left, right))
					}
				}
			}
		}
	}
	st.counts[key] = total
	return total
}

// matchVariant is one way of consuming the two matched head connectors:
// multi-connectors may stay in their list for further links.
type matchVariant struct{ x, y *connNode }

// matchVariants returns the variants in vs[:n], in a fixed order.
func matchVariants(x, y *connNode) (vs [4]matchVariant, n int) {
	vs[0] = matchVariant{x.next, y.next}
	n = 1
	if x.conn.Multi {
		vs[n] = matchVariant{x, y.next}
		n++
	}
	if y.conn.Multi {
		vs[n] = matchVariant{x.next, y}
		n++
	}
	if x.conn.Multi && y.conn.Multi {
		vs[n] = matchVariant{x, y}
		n++
	}
	return vs, n
}

// partial is an intermediate extraction result for a region.
type partial struct {
	links []Link
	nulls []int // word indices skipped (internal indexing, wall = 0)
	cost  int
}

func crossPartials(ls, rs []partial, budget int) []partial {
	out := make([]partial, 0, min(budget, len(ls)*len(rs)))
	for _, l := range ls {
		for _, r := range rs {
			if len(out) >= budget {
				return out
			}
			p := partial{
				links: make([]Link, 0, len(l.links)+len(r.links)),
				nulls: append(append([]int{}, l.nulls...), r.nulls...),
				cost:  l.cost + r.cost,
			}
			p.links = append(append(p.links, l.links...), r.links...)
			out = append(out, p)
		}
	}
	return out
}

// extractTotal enumerates up to `budget` full-sentence linkages with
// exactly `nulls` skipped words, filtering any that violate the
// exclusion meta-rule (possible only via multi-connectors).
func (st *parseState) extractTotal(nulls, budget int) []*Linkage {
	n := len(st.words)
	var out []*Linkage
	for _, d0 := range st.disjuncts[0] {
		if d0.leftList != nil {
			continue
		}
		if st.count(0, n, d0.rightList, nil, nulls) == 0 {
			continue
		}
		for _, p := range st.extract(0, n, d0.rightList, nil, nulls, budget-len(out)) {
			lk := &Linkage{
				Links: p.links,
				Cost:  p.cost + d0.Cost,
			}
			lk.NullWords = append(lk.NullWords, p.nulls...)
			sort.Ints(lk.NullWords)
			sort.Slice(lk.Links, func(i, j int) bool {
				if lk.Links[i].Left != lk.Links[j].Left {
					return lk.Links[i].Left < lk.Links[j].Left
				}
				return lk.Links[i].Right < lk.Links[j].Right
			})
			if lk.violatesExclusion() {
				continue
			}
			out = append(out, lk)
			if len(out) >= budget {
				return out
			}
		}
	}
	return out
}

// extract mirrors count but materializes the linkages.
func (st *parseState) extract(a, b int, la, lb *connNode, nulls, budget int) []partial {
	if budget <= 0 {
		return nil
	}
	if b == a+1 {
		if la == nil && lb == nil && nulls == 0 {
			return []partial{{}}
		}
		return nil
	}
	if la == nil && lb == nil {
		if nulls != b-a-1 {
			return nil
		}
		p := partial{nulls: make([]int, 0, nulls)}
		for w := a + 1; w < b; w++ {
			p.nulls = append(p.nulls, w)
		}
		return []partial{p}
	}
	if st.count(a, b, la, lb, nulls) == 0 {
		return nil
	}

	var out []partial
	emit := func(link *Link, ls, rs []partial) {
		if link.Label == "" {
			// Labelled on first use: most matching disjuncts yield no
			// linkage inside the region.
			link.Label = LinkLabel(link.LConn, link.RConn)
		}
		for _, p := range crossPartials(ls, rs, budget-len(out)) {
			p.links = append(p.links, *link)
			out = append(out, p)
			if len(out) >= budget {
				return
			}
		}
	}

	if la != nil {
		for w := a + 1; w < b && len(out) < budget; w++ {
			for _, d := range st.disjuncts[w] {
				dl := d.leftList
				if dl == nil || !st.match(la, dl) {
					continue
				}
				link := Link{Left: a, Right: w, LConn: la.conn, RConn: dl.conn}
				vs, nv := matchVariants(la, dl)
				for _, v := range vs[:nv] {
					for k1 := 0; k1 <= nulls && len(out) < budget; k1++ {
						if st.count(a, w, v.x, v.y, k1) == 0 ||
							st.count(w, b, d.rightList, lb, nulls-k1) == 0 {
							continue
						}
						ls := st.extract(a, w, v.x, v.y, k1, budget-len(out))
						rs := st.extract(w, b, d.rightList, lb, nulls-k1, budget-len(out))
						// extract returns fresh partials, so the disjunct's
						// cost is added in place.
						for i := range rs {
							rs[i].cost += d.Cost
						}
						emit(&link, ls, rs)
					}
				}
			}
		}
		if lb != nil && st.match(la, lb) && len(out) < budget {
			link := Link{
				Left: a, Right: b,
				Label: LinkLabel(la.conn, lb.conn),
				LConn: la.conn, RConn: lb.conn,
			}
			vs, nv := matchVariants(la, lb)
			for _, v := range vs[:nv] {
				if st.count(a, b, v.x, v.y, nulls) == 0 {
					continue
				}
				for _, p := range st.extract(a, b, v.x, v.y, nulls, budget-len(out)) {
					p.links = append(p.links, link)
					out = append(out, p)
					if len(out) >= budget {
						return out
					}
				}
			}
		}
	} else {
		for w := a + 1; w < b && len(out) < budget; w++ {
			for _, d := range st.disjuncts[w] {
				dr := d.rightList
				if dr == nil || !st.match(dr, lb) {
					continue
				}
				link := Link{Left: w, Right: b, LConn: dr.conn, RConn: lb.conn}
				vs, nv := matchVariants(dr, lb)
				for _, v := range vs[:nv] {
					for k1 := 0; k1 <= nulls && len(out) < budget; k1++ {
						if st.count(a, w, nil, d.leftList, k1) == 0 ||
							st.count(w, b, v.x, v.y, nulls-k1) == 0 {
							continue
						}
						ls := st.extract(a, w, nil, d.leftList, k1, budget-len(out))
						rs := st.extract(w, b, v.x, v.y, nulls-k1, budget-len(out))
						for i := range ls {
							ls[i].cost += d.Cost
						}
						emit(&link, ls, rs)
					}
				}
			}
		}
	}
	return out
}
