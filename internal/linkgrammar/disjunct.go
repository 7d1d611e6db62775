package linkgrammar

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Disjunct is one way a word's linking requirements can be satisfied: an
// ordered list of left connectors and right connectors that must all be
// used by links. Following the paper's notation ((L1,…,Lm)(Rn,…,R1)),
// Left and Right are stored in traversal (near-to-far) order: Left[0]
// links to the nearest word on the left, Right[0] to the nearest word on
// the right.
type Disjunct struct {
	Left  []Connector
	Right []Connector
	Cost  int

	// leftList and rightList are the same connectors as persistent,
	// interned linked lists in far-to-near order, which is the order
	// the dynamic-programming parser consumes them in. They are built
	// by finalize.
	leftList  *connNode
	rightList *connNode
}

// String renders the disjunct in the paper's ((L1,…)(…,R1)) notation.
func (d *Disjunct) String() string {
	var b strings.Builder
	b.WriteString("((")
	for i, c := range d.Left {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteString(")(")
	for i := len(d.Right) - 1; i >= 0; i-- {
		b.WriteString(d.Right[i].String())
		if i > 0 {
			b.WriteString(", ")
		}
	}
	b.WriteString("))")
	if d.Cost > 0 {
		fmt.Fprintf(&b, "[cost %d]", d.Cost)
	}
	return b.String()
}

// connNode is one cell of a persistent connector list. Lists are
// interned, so equal suffixes share cells and a cell stands for the
// whole list from it to the end: the parser keys its memoization table
// on cell IDs. Each cell also carries its connector compiled for
// matching, split once here instead of on every Match.
type connNode struct {
	conn Connector
	next *connNode

	// id numbers the cells of one direction densely from 1; 0 stands
	// for the empty list in the parser's memo keys.
	id int32
	// cid numbers the distinct connectors of one direction densely from
	// 0; the parser's per-parse match table is indexed by it.
	cid int32
	// typ is the interned upper-case type and sub the subscript after it.
	typ int32
	sub string
}

// connInterner dedupes connector-list cells so that structurally equal
// lists are pointer-equal, keeping the parser memo table small.
type connInterner struct {
	cells map[internKey]*connNode
	conns map[Connector]int32
	types map[string]int32
	// nCells and nConns count cells and distinct connectors per
	// direction (index Dir-1); the parser sizes its tables from them.
	nCells, nConns [2]int32
}

type internKey struct {
	conn Connector
	next *connNode
}

func newConnInterner() *connInterner {
	return &connInterner{
		cells: make(map[internKey]*connNode),
		conns: make(map[Connector]int32),
		types: make(map[string]int32),
	}
}

// list interns the far-to-near linked list for connectors given in
// near-to-far order.
func (in *connInterner) list(nearToFar []Connector) *connNode {
	var head *connNode
	// Build from the nearest connector outward so that the head of the
	// resulting list is the farthest connector.
	for _, c := range nearToFar {
		head = in.cell(c, head)
	}
	return head
}

// cell interns one cell, numbering and compiling it on first sight.
func (in *connInterner) cell(c Connector, next *connNode) *connNode {
	key := internKey{conn: c, next: next}
	if cell, ok := in.cells[key]; ok {
		return cell
	}
	dir := c.Dir - 1
	cid, ok := in.conns[c]
	if !ok {
		cid = in.nConns[dir]
		in.nConns[dir]++
		in.conns[c] = cid
	}
	u := upperLen(c.Name)
	typ, ok := in.types[c.Name[:u]]
	if !ok {
		typ = int32(len(in.types))
		in.types[c.Name[:u]] = typ
	}
	in.nCells[dir]++
	cell := &connNode{conn: c, next: next, id: in.nCells[dir], cid: cid, typ: typ, sub: c.Name[u:]}
	in.cells[key] = cell
	return cell
}

// headGroup is a run of one word's disjuncts whose connector lists on
// one side are the same interned list, head. The members' lists on the
// other side are rest[lo:hi] of the word's headIndex. The parser
// matches head once for the whole group instead of once per disjunct.
type headGroup struct {
	head   *connNode
	lo, hi int32
}

// headIndex groups a word's disjuncts by the head cell of their left
// lists and, separately, of their right lists. Disjuncts with an empty
// list on a side are in no group of that side: they cannot link there.
type headIndex struct {
	left, right []headGroup
	rest        []*connNode
}

// groupHeads regroups ds into idx, reusing idx's storage. slot maps a
// head cell's id to its group's position + 1 and must be zeroed and
// longer than every id in ds; groupHeads leaves it zeroed.
func groupHeads(idx *headIndex, ds []*Disjunct, slot []int32) {
	// Each disjunct is a member of at most one group a side.
	idx.rest = slices.Grow(idx.rest[:0], 2*len(ds))
	idx.left = idx.appendGroups(idx.left[:0], ds, slot, func(d *Disjunct) (*connNode, *connNode) { return d.leftList, d.rightList })
	idx.right = idx.appendGroups(idx.right[:0], ds, slot, func(d *Disjunct) (*connNode, *connNode) { return d.rightList, d.leftList })
}

func (idx *headIndex) appendGroups(gs []headGroup, ds []*Disjunct, slot []int32, side func(*Disjunct) (head, rest *connNode)) []headGroup {
	// Number the groups in order of first appearance, counting members
	// in hi; then turn the counts into ranges of rest and fill them.
	for _, d := range ds {
		if head, _ := side(d); head != nil {
			if slot[head.id] == 0 {
				gs = append(gs, headGroup{head: head})
				slot[head.id] = int32(len(gs))
			}
			gs[slot[head.id]-1].hi++
		}
	}
	off := int32(len(idx.rest))
	for i := range gs {
		n := gs[i].hi
		gs[i].lo, gs[i].hi = off, off
		off += n
	}
	idx.rest = slices.Grow(idx.rest, int(off)-len(idx.rest))[:off]
	for _, d := range ds {
		if head, rest := side(d); head != nil {
			g := &gs[slot[head.id]-1]
			idx.rest[g.hi] = rest
			g.hi++
		}
	}
	for _, g := range gs {
		slot[g.head.id] = 0
	}
	return gs
}

// maxDisjunctsPerWord caps expression expansion so that a pathological
// dictionary entry cannot exhaust memory.
const maxDisjunctsPerWord = 4096

// ErrDisjunctOverflow is returned when a dictionary formula expands into
// more disjuncts than maxDisjunctsPerWord.
var ErrDisjunctOverflow = fmt.Errorf("formula expands to more than %d disjuncts", maxDisjunctsPerWord)

// buildDisjuncts expands a formula into its disjuncts: every way of
// choosing one branch of each "or" yields one conjunction of connectors,
// read off in traversal order per direction.
func buildDisjuncts(e *Expr, resolve func(string) (*Expr, error)) ([]*Disjunct, error) {
	ds, err := expand(e, resolve, 0)
	if err != nil {
		return nil, err
	}
	return dedupeDisjuncts(ds), nil
}

func expand(e *Expr, resolve func(string) (*Expr, error), depth int) ([]*Disjunct, error) {
	if depth > 64 {
		return nil, fmt.Errorf("macro expansion too deep (cycle?)")
	}
	var out []*Disjunct
	switch e.kind {
	case exprEmpty:
		out = []*Disjunct{{}}
	case exprConn:
		d := &Disjunct{}
		if e.conn.Dir == DirLeft {
			d.Left = []Connector{e.conn}
		} else {
			d.Right = []Connector{e.conn}
		}
		out = []*Disjunct{d}
	case exprRef:
		target, err := resolve(e.ref)
		if err != nil {
			return nil, err
		}
		out, err = expand(target, resolve, depth+1)
		if err != nil {
			return nil, err
		}
	case exprOr:
		for _, sub := range e.subs {
			ds, err := expand(sub, resolve, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, ds...)
			if len(out) > maxDisjunctsPerWord {
				return nil, ErrDisjunctOverflow
			}
		}
	case exprAnd:
		out = []*Disjunct{{}}
		for _, sub := range e.subs {
			ds, err := expand(sub, resolve, depth+1)
			if err != nil {
				return nil, err
			}
			if len(out)*len(ds) > maxDisjunctsPerWord {
				return nil, ErrDisjunctOverflow
			}
			merged := make([]*Disjunct, 0, len(out)*len(ds))
			for _, a := range out {
				for _, b := range ds {
					merged = append(merged, concatDisjunct(a, b))
				}
			}
			out = merged
		}
	default:
		return nil, fmt.Errorf("unknown expression kind %d", e.kind)
	}
	if e.cost > 0 {
		for _, d := range out {
			d.Cost += e.cost
		}
	}
	return out, nil
}

// concatDisjunct joins two partial disjuncts preserving traversal order:
// connectors of a precede connectors of b within each direction.
func concatDisjunct(a, b *Disjunct) *Disjunct {
	d := &Disjunct{
		Left:  make([]Connector, 0, len(a.Left)+len(b.Left)),
		Right: make([]Connector, 0, len(a.Right)+len(b.Right)),
		Cost:  a.Cost + b.Cost,
	}
	d.Left = append(append(d.Left, a.Left...), b.Left...)
	d.Right = append(append(d.Right, a.Right...), b.Right...)
	return d
}

// dedupeDisjuncts removes duplicate disjuncts (same connector sequences),
// keeping the cheapest copy, and orders the result by cost so that the
// parser visits cheap disjuncts first.
func dedupeDisjuncts(ds []*Disjunct) []*Disjunct {
	// Keys are rendered once per disjunct and carried through the sort —
	// a comparator calling key() would rebuild two strings per
	// comparison, which dominated the dictionary's cold-start allocation
	// profile.
	type keyed struct {
		d   *Disjunct
		key string
	}
	seen := make(map[string]int, len(ds))
	kept := make([]keyed, 0, len(ds))
	for _, d := range ds {
		key := d.key()
		if i, ok := seen[key]; ok {
			if d.Cost < kept[i].d.Cost {
				kept[i].d = d
			}
			continue
		}
		seen[key] = len(kept)
		kept = append(kept, keyed{d: d, key: key})
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].d.Cost != kept[j].d.Cost {
			return kept[i].d.Cost < kept[j].d.Cost
		}
		return kept[i].key < kept[j].key
	})
	out := make([]*Disjunct, len(kept))
	for i, k := range kept {
		out[i] = k.d
	}
	return out
}

func (d *Disjunct) key() string {
	var b strings.Builder
	for _, c := range d.Left {
		b.WriteString(c.String())
		b.WriteByte(' ')
	}
	b.WriteByte('|')
	for _, c := range d.Right {
		b.WriteString(c.String())
		b.WriteByte(' ')
	}
	return b.String()
}

// finalize interns the far-to-near connector lists used by the parser.
func (d *Disjunct) finalize(in *connInterner) {
	d.leftList = in.list(d.Left)
	d.rightList = in.list(d.Right)
}
