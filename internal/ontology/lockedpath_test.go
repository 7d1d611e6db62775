package ontology

import (
	"container/heap"
	"strings"
)

// The read path as it stood before snapshots were compiled: an RWMutex
// read lock over the live maps, a map-allocating Dijkstra per distance
// query, and an ExtractTerms that rescans every name to find the
// longest phrase. It is kept here as the reference the snapshot read
// path (DESIGN.md D8) must reproduce answer for answer.
type lockedReadPath struct {
	o *Ontology
}

// Distance is the legacy locked shortest-path query.
func (p lockedReadPath) Distance(a, b string) int {
	o := p.o
	o.mu.RLock()
	defer o.mu.RUnlock()
	ia, ok := o.lookupFoldedLocked(a)
	if !ok {
		return Unreachable
	}
	ib, ok := o.lookupFoldedLocked(b)
	if !ok {
		return Unreachable
	}
	dist, _ := o.dijkstraLocked(ia.ID, ib.ID)
	return dist
}

// Related is the legacy locked relatedness query.
func (p lockedReadPath) Related(a, b string, threshold int) bool {
	if threshold <= 0 {
		threshold = DefaultRelatedThreshold
	}
	return p.Distance(a, b) <= threshold
}

// Path is the legacy locked shortest-path reconstruction. The returned
// steps alias the live items.
func (p lockedReadPath) Path(a, b string) []PathStep {
	o := p.o
	o.mu.RLock()
	defer o.mu.RUnlock()
	ia, ok := o.lookupFoldedLocked(a)
	if !ok {
		return nil
	}
	ib, ok := o.lookupFoldedLocked(b)
	if !ok {
		return nil
	}
	dist, prev := o.dijkstraLocked(ia.ID, ib.ID)
	if dist >= Unreachable {
		return nil
	}
	var steps []PathStep
	for at := ib.ID; at != ia.ID; {
		pe := prev[at]
		steps = append(steps, PathStep{
			From:    o.items[pe.from],
			To:      o.items[at],
			Kind:    pe.kind,
			Forward: pe.forward,
		})
		at = pe.from
	}
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}

// ExtractTerms is the legacy locked greedy matcher, including its
// per-call max-phrase-length rescan of every name.
func (p lockedReadPath) ExtractTerms(tokens []string) []TermMatch {
	o := p.o
	o.mu.RLock()
	defer o.mu.RUnlock()
	maxLen := 1
	for name := range o.byName {
		if n := strings.Count(name, " ") + 1; n > maxLen {
			maxLen = n
		}
	}
	var out []TermMatch
	for i := 0; i < len(tokens); {
		matched := false
		limit := maxLen
		if rem := len(tokens) - i; rem < limit {
			limit = rem
		}
		for l := limit; l >= 1 && !matched; l-- {
			phrase := strings.Join(tokens[i:i+l], " ")
			if it, ok := o.lookupFoldedLocked(phrase); ok {
				out = append(out, TermMatch{Item: it, Start: i, End: i + l, Text: phrase})
				i += l
				matched = true
			}
		}
		if !matched {
			i++
		}
	}
	return out
}

func (o *Ontology) lookupFoldedLocked(name string) (*Item, bool) {
	key := Normalize(name)
	if id, ok := o.byName[key]; ok {
		return o.items[id], true
	}
	for _, folded := range pluralFolds(key) {
		if id, ok := o.byName[folded]; ok {
			return o.items[id], true
		}
	}
	return nil, false
}

type prevEdge struct {
	from    int
	kind    RelationKind
	forward bool
}

type pqItem struct {
	id   int
	dist int
}

type priorityQueue []pqItem

func (pq priorityQueue) Len() int            { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool  { return pq[i].dist < pq[j].dist }
func (pq priorityQueue) Swap(i, j int)       { pq[i], pq[j] = pq[j], pq[i] }
func (pq *priorityQueue) Push(x interface{}) { *pq = append(*pq, x.(pqItem)) }
func (pq *priorityQueue) Pop() interface{} {
	old := *pq
	n := len(old)
	item := old[n-1]
	*pq = old[:n-1]
	return item
}

// dijkstraLocked runs weighted shortest path from src, stopping early at
// dst, and returns the distance plus the predecessor map.
func (o *Ontology) dijkstraLocked(src, dst int) (int, map[int]prevEdge) {
	dist := map[int]int{src: 0}
	prev := make(map[int]prevEdge)
	pq := priorityQueue{{id: src, dist: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(&pq).(pqItem)
		if cur.dist > dist[cur.id] {
			continue
		}
		if cur.id == dst {
			return cur.dist, prev
		}
		relax := func(to int, kind RelationKind, forward bool) {
			nd := cur.dist + kind.Weight()
			if d, seen := dist[to]; !seen || nd < d {
				dist[to] = nd
				prev[to] = prevEdge{from: cur.id, kind: kind, forward: forward}
				heap.Push(&pq, pqItem{id: to, dist: nd})
			}
		}
		for _, r := range o.out[cur.id] {
			relax(r.To, r.Kind, true)
		}
		for _, r := range o.in[cur.id] {
			relax(r.From, r.Kind, false)
		}
	}
	if d, ok := dist[dst]; ok {
		return d, prev
	}
	return Unreachable, prev
}
