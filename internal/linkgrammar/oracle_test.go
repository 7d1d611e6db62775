package linkgrammar

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"semagent/internal/ontology"
	"semagent/internal/workload"
)

// The parser kernel as it stood before connectors were compiled: the
// string Match on every pair, a memo map keyed by a struct of node
// pointers, and a flat scan over every disjunct of every word. It is
// kept here as the reference the compiled kernel (match table, packed
// memo keys, head-connector index) must reproduce result for result.

type oracleKey struct {
	a, b   int16
	la, lb *connNode
	nulls  int8
}

type oracleState struct {
	words     []string
	disjuncts [][]*Disjunct
	counts    map[oracleKey]int64
}

// oracleParseTokens is ParseTokens without the cache, run on the
// reference kernel over p's dictionary and options.
func oracleParseTokens(p *Parser, tokens []string) (*Result, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("empty sentence")
	}
	if len(tokens) > p.opts.MaxTokens {
		return nil, fmt.Errorf("sentence has %d tokens, limit is %d", len(tokens), p.opts.MaxTokens)
	}
	words := make([]string, len(tokens)+1)
	words[0] = LeftWall
	copy(words[1:], tokens)
	res := &Result{Tokens: words[1:]}
	st := &oracleState{words: words, disjuncts: make([][]*Disjunct, len(words)), counts: map[oracleKey]int64{}}
	for i, w := range words {
		ds, err := p.dict.Disjuncts(w)
		if err != nil {
			return nil, err
		}
		if !p.dict.Has(w) && i > 0 {
			res.UnknownWords = append(res.UnknownWords, i-1)
		}
		st.disjuncts[i] = ds
	}
	if !p.opts.DisablePruning {
		st.disjuncts = pruneDisjuncts(st.disjuncts)
	}
	maxNulls := min(p.opts.MaxNulls, len(tokens)-1)
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
	return res, nil
}

func oracleVariants(x, y *connNode) []matchVariant {
	vs := []matchVariant{{x.next, y.next}}
	if x.conn.Multi {
		vs = append(vs, matchVariant{x, y.next})
	}
	if y.conn.Multi {
		vs = append(vs, matchVariant{x.next, y})
	}
	if x.conn.Multi && y.conn.Multi {
		vs = append(vs, matchVariant{x, y})
	}
	return vs
}

func (st *oracleState) countTotal(nulls int) int64 {
	var total int64
	for _, d0 := range st.disjuncts[0] {
		if d0.leftList == nil {
			total = satAdd(total, st.count(0, len(st.words), d0.rightList, nil, nulls))
		}
	}
	return total
}

func (st *oracleState) count(a, b int, la, lb *connNode, nulls int) int64 {
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
	if nulls > b-a-1 {
		return 0
	}
	key := oracleKey{a: int16(a), b: int16(b), la: la, lb: lb, nulls: int8(nulls)}
	if v, ok := st.counts[key]; ok {
		return v
	}
	st.counts[key] = 0
	var total int64
	if la != nil {
		for w := a + 1; w < b; w++ {
			for _, d := range st.disjuncts[w] {
				dl := d.leftList
				if dl == nil || !Match(la.conn, dl.conn) {
					continue
				}
				for _, v := range oracleVariants(la, dl) {
					for k1 := 0; k1 <= nulls; k1++ {
						left := st.count(a, w, v.x, v.y, k1)
						if left == 0 {
							continue
						}
						right := st.count(w, b, d.rightList, lb, nulls-k1)
						total = satAdd(total, satMul(left, right))
					}
				}
			}
		}
		if lb != nil && Match(la.conn, lb.conn) {
			for _, v := range oracleVariants(la, lb) {
				total = satAdd(total, st.count(a, b, v.x, v.y, nulls))
			}
		}
	} else {
		for w := a + 1; w < b; w++ {
			for _, d := range st.disjuncts[w] {
				dr := d.rightList
				if dr == nil || !Match(dr.conn, lb.conn) {
					continue
				}
				for _, v := range oracleVariants(dr, lb) {
					for k1 := 0; k1 <= nulls; k1++ {
						left := st.count(a, w, nil, d.leftList, k1)
						if left == 0 {
							continue
						}
						right := st.count(w, b, v.x, v.y, nulls-k1)
						total = satAdd(total, satMul(left, right))
					}
				}
			}
		}
	}
	st.counts[key] = total
	return total
}

func (st *oracleState) extractTotal(nulls, budget int) []*Linkage {
	n := len(st.words)
	var out []*Linkage
	for _, d0 := range st.disjuncts[0] {
		if d0.leftList != nil || st.count(0, n, d0.rightList, nil, nulls) == 0 {
			continue
		}
		for _, p := range st.extract(0, n, d0.rightList, nil, nulls, budget-len(out)) {
			lk := &Linkage{Links: p.links, Cost: p.cost + d0.Cost}
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

func (st *oracleState) extract(a, b int, la, lb *connNode, nulls, budget int) []partial {
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
	emit := func(link Link, ls, rs []partial) {
		for _, p := range crossPartials(ls, rs, budget-len(out)) {
			p.links = append(p.links, link)
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
				if dl == nil || !Match(la.conn, dl.conn) {
					continue
				}
				link := Link{Left: a, Right: w, Label: LinkLabel(la.conn, dl.conn), LConn: la.conn, RConn: dl.conn}
				for _, v := range oracleVariants(la, dl) {
					for k1 := 0; k1 <= nulls && len(out) < budget; k1++ {
						if st.count(a, w, v.x, v.y, k1) == 0 || st.count(w, b, d.rightList, lb, nulls-k1) == 0 {
							continue
						}
						ls := st.extract(a, w, v.x, v.y, k1, budget-len(out))
						rs := st.extract(w, b, d.rightList, lb, nulls-k1, budget-len(out))
						withCost := make([]partial, len(rs))
						for i, r := range rs {
							r.cost += d.Cost
							withCost[i] = r
						}
						emit(link, ls, withCost)
					}
				}
			}
		}
		if lb != nil && Match(la.conn, lb.conn) && len(out) < budget {
			link := Link{Left: a, Right: b, Label: LinkLabel(la.conn, lb.conn), LConn: la.conn, RConn: lb.conn}
			for _, v := range oracleVariants(la, lb) {
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
				if dr == nil || !Match(dr.conn, lb.conn) {
					continue
				}
				link := Link{Left: w, Right: b, Label: LinkLabel(dr.conn, lb.conn), LConn: dr.conn, RConn: lb.conn}
				for _, v := range oracleVariants(dr, lb) {
					for k1 := 0; k1 <= nulls && len(out) < budget; k1++ {
						if st.count(a, w, nil, d.leftList, k1) == 0 || st.count(w, b, v.x, v.y, nulls-k1) == 0 {
							continue
						}
						ls := st.extract(a, w, nil, d.leftList, k1, budget-len(out))
						rs := st.extract(w, b, v.x, v.y, nulls-k1, budget-len(out))
						withCost := make([]partial, len(ls))
						for i, l := range ls {
							l.cost += d.Cost
							withCost[i] = l
						}
						emit(link, withCost, rs)
					}
				}
			}
		}
	}
	return out
}

// differentialInputs builds the token streams the differential test
// parses: workload sentences of every kind, the same sentences with
// their words shuffled (the shape of the Learning_Angel's repair
// candidates), concatenations long enough to be pruned, and sentences
// carrying undefined and numeric words.
func differentialInputs(seed int64) [][]string {
	gen := workload.NewGenerator(seed, ontology.BuildCourseOntology())
	rng := rand.New(rand.NewSource(seed))
	var base [][]string
	for i := 0; i < 40; i++ {
		for _, s := range []workload.Sample{gen.Correct(), gen.SyntaxError(), gen.SemanticError(), gen.Question(false), gen.Question(true)} {
			base = append(base, Tokenize(s.Text))
		}
	}
	out := append([][]string(nil), base...)
	for i := 0; i < 40; i++ {
		toks := append([]string(nil), base[rng.Intn(len(base))]...)
		rng.Shuffle(len(toks), func(a, b int) { toks[a], toks[b] = toks[b], toks[a] })
		out = append(out, toks)
	}
	for len(out) < len(base)+40+16 {
		a, b := base[rng.Intn(len(base))], base[rng.Intn(len(base))]
		if n := len(a) + len(b); n >= pruneMinWords && n <= 18 {
			out = append(out, append(append([]string(nil), a...), b...))
		}
	}
	odd := []string{"zorblax", "42", "7", "qwerty", "heapify"}
	for i := 0; i < 20; i++ {
		toks := append([]string(nil), base[rng.Intn(len(base))]...)
		toks[rng.Intn(len(toks))] = odd[i%len(odd)]
		out = append(out, toks)
	}
	return out
}

func describe(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "nulls=%d unknown=%v linkages=%d\n", res.NullCount, res.UnknownWords, len(res.Linkages))
	for _, lk := range res.Linkages {
		fmt.Fprintf(&b, "cost=%d nullwords=%v %v\n", lk.Cost, lk.NullWords, lk.Links)
	}
	return b.String()
}

// TestCompiledKernelMatchesOracle is the parser's differential test:
// under every option shape the supervisor and the ablations use, and
// again after the dictionary learns new words and new connector cells,
// ParseTokens must return exactly what the reference kernel returns.
func TestCompiledKernelMatchesOracle(t *testing.T) {
	dict, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	optionSets := map[string]Options{
		"default":        DefaultOptions(),
		"no-pruning":     {DisablePruning: true},
		"max-nulls--1":   {MaxNulls: -1},
		"max-nulls-0":    {MaxNulls: 0},
		"max-nulls-2":    {MaxNulls: 2},
		"max-nulls-3":    {MaxNulls: 3},
		"three-linkages": {MaxNulls: 3, MaxLinkages: 3, DisablePruning: true},
	}
	names := make([]string, 0, len(optionSets))
	for name := range optionSets {
		names = append(names, name)
	}
	sort.Strings(names)
	parsers := make(map[string]*Parser, len(optionSets))
	for _, name := range names {
		parsers[name] = NewParser(dict, optionSets[name])
	}
	inputs := differentialInputs(5)
	compare := func(phase string, inputs [][]string) {
		t.Helper()
		for _, name := range names {
			p := parsers[name]
			for _, toks := range inputs {
				got, gerr := p.ParseTokens(toks)
				want, werr := oracleParseTokens(p, toks)
				if (gerr != nil) != (werr != nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: %q\ncompiled: %s\noracle:   %s", phase, name, toks,
						describe(got, gerr), describe(want, werr))
				}
			}
		}
	}
	compare("fresh", inputs)

	// Teach the already-used dictionary new words over existing
	// connectors, a previously undefined word (zorblax) included, then
	// whole new connector types; the new cells must be matched and
	// memoized like the old ones.
	for _, w := range []string{"zorblax", "treap", "splay"} {
		if err := dict.Define(w, "<domain-term>"); err != nil {
			t.Fatal(err)
		}
	}
	if err := dict.LoadString(`
		blorp: {@A-} & Ds- & (<subj> & Ss+ or O- or J- or ZZ+);
		frob frobs: ZZ- & {@MV+} or (Ss- & ZZx+);
		quux: ZZ*- & {O+};
	`); err != nil {
		t.Fatal(err)
	}
	extra := append(inputs,
		Tokenize("the blorp frob"),
		Tokenize("the blorp frobs quux the zorblax"),
		Tokenize("the treap has a splay operation and the blorp frobs quux"),
		Tokenize("a zorblax is a treap"),
	)
	compare("after-define", extra)
}
