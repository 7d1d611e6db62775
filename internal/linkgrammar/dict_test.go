package linkgrammar

import (
	"fmt"
	"strings"
	"testing"
)

func TestLoadStringErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing colon", "cat dog;"},
		{"bad formula", "cat: S+ &&& O-;"},
		{"dangling direction", "cat: S;"},
		{"unterminated macro", "cat: <foo;"},
		{"empty heads", ": S+;"},
	}
	for _, tc := range cases {
		d := NewDictionary()
		if err := d.LoadString(tc.src); err == nil {
			t.Errorf("%s: LoadString(%q) should fail", tc.name, tc.src)
		}
	}
}

func TestUndefinedMacroSurfacesAtExpansion(t *testing.T) {
	d := NewDictionary()
	if err := d.LoadString("cat: <no-such-macro>;"); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := d.Disjuncts("cat"); err == nil {
		t.Error("expanding an undefined macro should fail")
	}
}

func TestMergeOrExtendsEntries(t *testing.T) {
	d := NewDictionary()
	if err := d.LoadString("cat: S+;"); err != nil {
		t.Fatal(err)
	}
	ds1, err := d.Disjuncts("cat")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadString("cat: O-;"); err != nil {
		t.Fatal(err)
	}
	ds2, err := d.Disjuncts("cat")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2) != len(ds1)+1 {
		t.Errorf("merged entry has %d disjuncts, want %d", len(ds2), len(ds1)+1)
	}
}

func TestDisjunctOverflowGuard(t *testing.T) {
	d := NewDictionary()
	// 2^13 = 8192 disjuncts > cap of 4096.
	var b strings.Builder
	b.WriteString("boom:")
	for i := 0; i < 13; i++ {
		if i > 0 {
			b.WriteString(" &")
		}
		b.WriteString(" (A+ or B+)")
	}
	b.WriteString(";")
	if err := d.LoadString(b.String()); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := d.Disjuncts("boom"); err == nil {
		t.Error("expected disjunct overflow error")
	}
}

func TestNumericTokensUseNumberMacro(t *testing.T) {
	d, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := d.Disjuncts("42")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("number token got no disjuncts")
	}
	p := NewParser(d, DefaultOptions())
	res, err := p.Parse("The array has 42 elements.")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid() {
		t.Errorf("numeric sentence should parse: nulls=%d", res.NullCount)
	}
}

func TestSetUnknownWordMacroValidation(t *testing.T) {
	d := NewDictionary()
	if err := d.SetUnknownWordMacro("nope"); err == nil {
		t.Error("unknown macro name should be rejected")
	}
	if err := d.SetUnknownWordMacro(""); err != nil {
		t.Errorf("clearing the fallback should succeed: %v", err)
	}
}

func TestMaxTokensGuard(t *testing.T) {
	p, err := NewEnglishParser()
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("cat ", 60)
	if _, err := p.Parse(long); err == nil {
		t.Error("overlong sentence should be rejected before parsing")
	}
}

func TestMaxLinkagesCap(t *testing.T) {
	d, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser(d, Options{MaxLinkages: 2, MaxNulls: 2})
	// An ambiguous sentence (PP attachment) can yield many parses.
	res, err := p.Parse("the student reads the book in the classroom")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Linkages) > 2 {
		t.Errorf("linkage cap ignored: %d", len(res.Linkages))
	}
}

func TestBestLinkageIsCheapest(t *testing.T) {
	p, err := NewEnglishParser()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Parse("Does stack have pop method?")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Linkages) == 0 {
		t.Fatal("no linkages")
	}
	best := res.Best().Cost
	for _, lk := range res.Linkages {
		if lk.Cost < best {
			t.Errorf("linkage with cost %d before best %d", lk.Cost, best)
		}
	}
}

func TestWordsAndLen(t *testing.T) {
	d := NewDictionary()
	if err := d.LoadString("zebra: S+; apple: O-;"); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Errorf("len = %d", d.Len())
	}
	words := d.Words()
	if len(words) != 2 || words[0] != "apple" || words[1] != "zebra" {
		t.Errorf("words = %v, want sorted [apple zebra]", words)
	}
	if !d.Has("ZEBRA") {
		t.Error("Has must be case-insensitive")
	}
}

// TestUndefinedWordsShareExpansions pins the bound on the per-word
// cache: undefined words reuse one expansion of the unknown-word macro
// (numbers one of the number macro) instead of each caching a copy,
// and redefinitions still reach them.
func TestUndefinedWordsShareExpansions(t *testing.T) {
	d, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser(d, DefaultOptions())
	if _, err := p.Parse("the zqwarm is a stack of 12"); err != nil {
		t.Fatal(err)
	}
	cached, cells := len(d.words), d.interner.nCells
	for i := 0; i < 500; i++ {
		if _, err := p.Parse(fmt.Sprintf("the zq%dwarm is a stack of %d", i, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.words) != cached || d.interner.nCells != cells {
		t.Fatalf("500 distinct undefined words grew the cache from %d to %d words, %v to %v cells",
			cached, len(d.words), cells, d.interner.nCells)
	}
	same := func(a, b string) bool {
		t.Helper()
		da, err := d.Disjuncts(a)
		if err != nil {
			t.Fatal(err)
		}
		db, err := d.Disjuncts(b)
		if err != nil {
			t.Fatal(err)
		}
		return len(da) > 0 && len(db) > 0 && &da[0] == &db[0]
	}
	if !same("zqone", "zqtwo") || !same("17", "4242") || same("zqone", "17") {
		t.Fatal("undefined words must share the unknown-word expansion, numbers the number expansion")
	}

	if err := d.Define("zqone", "O-"); err != nil {
		t.Fatal(err)
	}
	if ds, _ := d.Disjuncts("zqone"); len(ds) != 1 || same("zqone", "zqtwo") {
		t.Fatalf("Define of an undefined word did not take effect: %v", ds)
	}
	before, _ := d.Disjuncts("zqtwo")
	if err := d.LoadString("<unknown-word>: ZZ-;"); err != nil {
		t.Fatal(err)
	}
	if ds, _ := d.Disjuncts("zqtwo"); len(ds) != len(before)+1 {
		t.Fatalf("LoadString of the unknown-word macro not seen: %d disjuncts, was %d", len(ds), len(before))
	}
	if err := d.SetUnknownWordMacro(""); err != nil {
		t.Fatal(err)
	}
	if ds, _ := d.Disjuncts("zqtwo"); ds != nil {
		t.Fatalf("disabled fallback still expands undefined words: %v", ds)
	}
}
