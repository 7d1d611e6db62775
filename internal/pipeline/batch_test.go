package pipeline

import (
	"fmt"
	"sync"
	"testing"
)

// TestBatchDrainAccounting checks that batch draining changes only when
// tasks run, never how they are counted: every submitted task completes
// exactly once, in per-room submission order, and the Stats ledger
// balances exactly as without batching.
func TestBatchDrainAccounting(t *testing.T) {
	const (
		rooms = 8
		tasks = 100
	)
	p := New(Config{Workers: 2, QueueSize: 16, BatchDrain: 8})
	defer p.Close()

	var mu sync.Mutex
	seen := make(map[string][]int, rooms)

	var wg sync.WaitGroup
	for r := 0; r < rooms; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			room := fmt.Sprintf("room-%d", r)
			for i := 0; i < tasks; i++ {
				i := i
				if err := p.Submit(room, func() {
					mu.Lock()
					seen[room] = append(seen[room], i)
					mu.Unlock()
				}); err != nil {
					t.Errorf("%s submit %d: %v", room, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	p.Drain()

	st := p.Stats()
	if st.Submitted != rooms*tasks || st.Completed != rooms*tasks {
		t.Fatalf("stats submitted=%d completed=%d, want %d each", st.Submitted, st.Completed, rooms*tasks)
	}
	if st.Pending() != 0 {
		t.Fatalf("pending = %d after drain", st.Pending())
	}
	mu.Lock()
	defer mu.Unlock()
	for room, order := range seen {
		if len(order) != tasks {
			t.Fatalf("%s ran %d tasks, want %d", room, len(order), tasks)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("%s task order broken at %d: got %d", room, i, got)
			}
		}
	}
}
