package linkgrammar

import (
	"strings"
	"testing"
)

func newTestParser(t *testing.T) *Parser {
	t.Helper()
	p, err := NewEnglishParser()
	if err != nil {
		t.Fatalf("NewEnglishParser: %v", err)
	}
	return p
}

func mustParse(t *testing.T, p *Parser, sentence string) *Result {
	t.Helper()
	res, err := p.Parse(sentence)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sentence, err)
	}
	return res
}

func TestPaperExampleSentence(t *testing.T) {
	// Figure 2 of the paper: "The cat chased a mouse."
	p := newTestParser(t)
	res := mustParse(t, p, "The cat chased a mouse.")
	if !res.Valid() {
		t.Fatalf("sentence should parse with no null words, got nulls=%d linkages=%d",
			res.NullCount, len(res.Linkages))
	}
	best := res.Best()
	if err := best.Validate(); err != nil {
		t.Fatalf("best linkage invalid: %v\n%s", err, best)
	}
	// Expected links of Fig. 2: D(the,cat) S(cat,chased) O(chased,mouse) D(a,mouse).
	for _, want := range [][2]int{{1, 2}, {2, 3}, {3, 5}, {4, 5}} {
		if !best.HasLinkBetween(want[0], want[1]) {
			t.Errorf("missing link between words %d and %d\n%s", want[0], want[1], best)
		}
	}
}

func TestGrammaticalSentencesParse(t *testing.T) {
	p := newTestParser(t)
	sentences := []string{
		"The cat chased a mouse.",
		"A stack is a lifo structure.",
		"The stack has a push operation.",
		"I push the data into the stack.",
		"The teacher explains the lesson.",
		"Students understand the course.",
		"Does a stack have a pop method?",
		"What is a stack?",
		"Which structure has the method push?",
		"The tree doesn't have a pop method.",
		"A queue supports the enqueue operation.",
		"You can insert a value into the tree.",
		"The algorithm sorts the elements.",
		"Is the stack empty?",
		"How does a queue work?",
		"Push the data into the stack.",
		"A binary tree has a root node.",
		"The data is stored in the heap.",
		"I want to learn the algorithm.",
		"The list doesn't contain the value.",
		"We discuss the homework.",
		"It is very useful.",
		"The relations of the stack and the queue are important.",
		"A heap is a complete binary tree.",
		"Trees have nodes.",
	}
	for _, s := range sentences {
		res := mustParse(t, p, s)
		if !res.Valid() {
			t.Errorf("%q: expected a full parse, got nulls=%d linkages=%d unknown=%v",
				s, res.NullCount, len(res.Linkages), res.UnknownWords)
			continue
		}
		for _, lk := range res.Linkages {
			if err := lk.Validate(); err != nil {
				t.Errorf("%q: invalid linkage: %v\n%s", s, err, lk)
			}
		}
	}
}

func TestUngrammaticalSentencesNeedNulls(t *testing.T) {
	p := newTestParser(t)
	sentences := []string{
		"The cat chased chased a mouse.",
		"Cat the chased a mouse.",
		"The the cat chased a mouse.",
		"The cats chases a mouse.", // agreement error
		"I pushes the data.",       // agreement error
	}
	for _, s := range sentences {
		res := mustParse(t, p, s)
		if res.Valid() {
			t.Errorf("%q: expected syntax trouble, but parsed cleanly:\n%s", s, res.Best())
		}
	}
}

func TestNullWordsLocateError(t *testing.T) {
	p := newTestParser(t)
	res := mustParse(t, p, "The the cat chased a mouse.")
	if len(res.Linkages) == 0 {
		t.Fatal("expected a fault-tolerant parse")
	}
	if res.NullCount != 1 {
		t.Fatalf("want 1 null word, got %d", res.NullCount)
	}
	best := res.Best()
	nulls := best.NullTokens()
	if len(nulls) != 1 || (nulls[0] != 0 && nulls[0] != 1) {
		t.Errorf("null word should be one of the duplicated determiners, got %v", nulls)
	}
	if err := best.Validate(); err != nil {
		t.Errorf("linkage with nulls should still validate: %v", err)
	}
}

func TestQuestionLinkagesCarryWqLabel(t *testing.T) {
	p := newTestParser(t)
	for _, s := range []string{
		"What is a stack?",
		"Does a stack have a pop method?",
		"Which structure has the method push?",
		"How does a queue work?",
	} {
		res := mustParse(t, p, s)
		if !res.Valid() {
			t.Errorf("%q should parse", s)
			continue
		}
		if !res.Best().HasLabel("Wq") {
			t.Errorf("%q: expected a Wq wall link\n%s", s, res.Best())
		}
	}
}

func TestImperativeLinkagesCarryWiLabel(t *testing.T) {
	p := newTestParser(t)
	res := mustParse(t, p, "Push the data into the stack.")
	if !res.Valid() {
		t.Fatal("imperative should parse")
	}
	if !res.Best().HasLabel("Wi") {
		t.Errorf("expected a Wi wall link\n%s", res.Best())
	}
}

func TestUnknownWordsReported(t *testing.T) {
	p := newTestParser(t)
	res := mustParse(t, p, "The gizmo frobnicates the data.")
	if len(res.UnknownWords) == 0 {
		t.Error("expected unknown words to be reported")
	}
}

func TestDiagramRendering(t *testing.T) {
	p := newTestParser(t)
	res := mustParse(t, p, "The cat chased a mouse.")
	diagram := res.Best().String()
	for _, want := range []string{"left-wall", "cat", "chased", "mouse", "+"} {
		if !strings.Contains(diagram, want) {
			t.Errorf("diagram missing %q:\n%s", want, diagram)
		}
	}
}

func TestConnectorMatching(t *testing.T) {
	cases := []struct {
		r, l string
		want bool
	}{
		{"S+", "S-", true},
		{"Ss+", "S-", true},
		{"S+", "Ss-", true},
		{"Ss+", "Ss-", true},
		{"Ss+", "Sp-", false},
		{"S*b+", "Ssb-", true}, // '*' is a wildcard subscript
		{"Sab+", "Ssb-", false},
		{"S*b+", "Spb-", true},
		{"D+", "S-", false},
		{"SI+", "S-", false},
		{"Wd+", "Wd-", true},
		{"Wd+", "Wq-", false},
	}
	for _, tc := range cases {
		r, err := parseConnectorToken(tc.r)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.r, err)
		}
		l, err := parseConnectorToken(tc.l)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.l, err)
		}
		if got := Match(r, l); got != tc.want {
			t.Errorf("Match(%s,%s) = %v, want %v", tc.r, tc.l, got, tc.want)
		}
	}
}

func TestDirectionsMustOppose(t *testing.T) {
	a := Connector{Name: "S", Dir: DirRight}
	b := Connector{Name: "S", Dir: DirRight}
	if Match(a, b) {
		t.Error("two right-pointing connectors must not match")
	}
}

// TestMemoKeyLayout checks that the packed memo key is collision-free:
// the extremes of every field a parse can produce decode back intact,
// and NewParser lowers MaxTokens to the limit the layout was sized for.
func TestMemoKeyLayout(t *testing.T) {
	const wordMask, cellMask = 1<<keyWordBits - 1, 1<<keyCellBits - 1
	maxWord := maxTokensLimit + 1 // LEFT-WALL plus maxTokensLimit tokens
	cell := func(id int) *connNode {
		if id == 0 {
			return nil
		}
		return &connNode{id: int32(id)}
	}
	for _, a := range []int{0, 1, maxWord - 1} {
		for _, b := range []int{a + 1, maxWord} {
			for _, nulls := range []int{0, 1, maxTokensLimit - 1} {
				for _, la := range []int{0, 1, cellMask} {
					for _, lb := range []int{0, 1, cellMask} {
						k := memoKey(a, b, nulls, cell(la), cell(lb))
						got := [5]int{int(k & wordMask), int(k >> keyWordBits & wordMask), int(k >> (2 * keyWordBits) & wordMask),
							int(k >> (3 * keyWordBits) & cellMask), int(k >> (3*keyWordBits + keyCellBits))}
						if want := [5]int{a, b, nulls, la, lb}; got != want {
							t.Fatalf("memoKey%v decodes to %v", want, got)
						}
					}
				}
			}
		}
	}

	d, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser(d, Options{MaxTokens: 10 * maxTokensLimit})
	if p.opts.MaxTokens != maxTokensLimit {
		t.Fatalf("MaxTokens = %d, want it lowered to %d", p.opts.MaxTokens, maxTokensLimit)
	}
	long := strings.Fields(strings.Repeat("the stack ", maxTokensLimit/2))
	if _, err := p.ParseTokens(long); err != nil {
		t.Fatalf("%d tokens: %v", len(long), err)
	}
	if _, err := p.ParseTokens(append(long, "stack")); err == nil {
		t.Fatalf("%d tokens accepted past the key layout's limit", len(long)+1)
	}
}
