package eval

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/ontology"
	"semagent/internal/workload"
)

// E15Config sizes experiment E15: the wire-to-verdict throughput and
// allocation comparison of the two chat framings (newline-JSON vs
// length-prefixed binary, DESIGN.md D13) across supervision pool sizes.
type E15Config struct {
	// WorkerSweep lists the async supervision pool sizes to measure
	// (default 1, 4, 16).
	WorkerSweep []int
	// Rooms and ClientsPerRoom shape the population (defaults 4 and 2).
	Rooms, ClientsPerRoom int
	// MessagesEach is each client's script length (default 150).
	MessagesEach int
	// Seed drives the workload generator.
	Seed int64
}

func (c *E15Config) fill() {
	if len(c.WorkerSweep) == 0 {
		c.WorkerSweep = []int{1, 4, 16}
	}
	if c.Rooms <= 0 {
		c.Rooms = 4
	}
	if c.ClientsPerRoom <= 0 {
		c.ClientsPerRoom = 2
	}
	if c.MessagesEach <= 0 {
		c.MessagesEach = 150
	}
}

// E15Arm is one measured wire × workers configuration: real TCP
// loopback, pipelined senders (no per-message echo wait, so the wire
// and the supervision pool — not round-trip latency — set the ceiling),
// and the run only stops its clock after the server has quiesced, so
// Throughput is messages fully supervised per second, wire to verdict.
type E15Arm struct {
	Wire     string
	Workers  int
	Messages int
	Elapsed  time.Duration
	// Throughput is chat messages through supervision per second.
	Throughput float64
	// AllocsPerMsg is the process-wide heap-allocation count per chat
	// message (runtime.MemStats Mallocs delta), covering both ends of
	// the wire and the full supervision pipeline.
	AllocsPerMsg float64
	// BytesPerMsg is the matching cumulative heap bytes per message.
	BytesPerMsg float64
}

// E15Result pairs the arms with headline ratios at the largest pool.
type E15Result struct {
	Config E15Config
	Arms   []E15Arm
	// BinarySpeedup is binary/text throughput at the largest worker
	// count; AllocReduction is 1 - binary/text allocs per message there.
	BinarySpeedup  float64
	AllocReduction float64
}

// RunE15 sweeps wire format × worker count over a live TCP server.
// Every arm gets a fresh server and supervisor (cold stores and
// caches) and replays the same seeded workload.
func RunE15(cfg E15Config) (*E15Result, error) {
	cfg.fill()
	res := &E15Result{Config: cfg}
	for _, workers := range cfg.WorkerSweep {
		for _, wire := range []chat.Wire{chat.WireText, chat.WireBinary} {
			arm, err := runE15Arm(cfg, workers, wire)
			if err != nil {
				return nil, fmt.Errorf("E15 %s/%d workers: %w", wireName(wire), workers, err)
			}
			res.Arms = append(res.Arms, *arm)
		}
	}
	last := len(res.Arms) - 1
	text, bin := res.Arms[last-1], res.Arms[last]
	if text.Throughput > 0 {
		res.BinarySpeedup = bin.Throughput / text.Throughput
	}
	if text.AllocsPerMsg > 0 {
		res.AllocReduction = 1 - bin.AllocsPerMsg/text.AllocsPerMsg
	}
	return res, nil
}

func wireName(w chat.Wire) string {
	if w == chat.WireBinary {
		return "binary"
	}
	return "text"
}

func runE15Arm(cfg E15Config, workers int, wire chat.Wire) (*E15Arm, error) {
	sup, err := core.New(core.Config{})
	if err != nil {
		return nil, err
	}
	server := chat.NewServer(chat.ServerOptions{
		Supervisor:     sup.ChatSupervisor(),
		Async:          true,
		Workers:        workers,
		BatchSupervise: true, // both arms measure the deployed fast path
		// Deep client queues: pipelined senders outrun their own read
		// loops in bursts, and a dropped client would end the arm.
		SendQueue: 4096,
	})
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer server.Close()

	// Scripts are generated before the measured window.
	gen := workload.NewGenerator(cfg.Seed, ontology.BuildCourseOntology())
	type script struct {
		room, user string
		lines      []string
	}
	var scripts []script
	for r := 0; r < cfg.Rooms; r++ {
		for c := 0; c < cfg.ClientsPerRoom; c++ {
			sc := script{
				room: fmt.Sprintf("room-%d", r),
				user: fmt.Sprintf("user-%d-%d", r, c),
			}
			for _, s := range gen.Generate(cfg.MessagesEach, workload.DefaultMix()) {
				sc.lines = append(sc.lines, s.Text)
			}
			scripts = append(scripts, sc)
		}
	}
	clients := make([]*chat.Client, len(scripts))
	for i, sc := range scripts {
		cl, err := chat.DialWire(addr.String(), sc.room, sc.user, wire, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", sc.user, err)
		}
		clients[i] = cl
	}
	defer func() {
		for _, cl := range clients {
			_ = cl.Close()
		}
	}()

	total := len(scripts) * cfg.MessagesEach
	arm := &E15Arm{Wire: wireName(wire), Workers: workers, Messages: total}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()

	// Receivers drain every broadcast for the whole arm (they only stop
	// when the connection closes, after measurement); senders finish
	// once their own last echo came back, so wg.Wait() means every chat
	// line was accepted and delivered.
	var wg, rwg sync.WaitGroup
	errCh := make(chan error, 2*len(scripts))
	for i, sc := range scripts {
		cl := clients[i]
		echoDone := make(chan struct{})
		rwg.Add(1)
		go func(user string, want int) {
			defer rwg.Done()
			got := 0
			for m := range cl.Receive() {
				if m.Type == chat.TypeChat && m.From == user {
					if got++; got == want {
						close(echoDone)
					}
				}
			}
		}(sc.user, cfg.MessagesEach)
		// Sender: pipelined, no per-message echo wait.
		wg.Add(1)
		go func(sc script) {
			defer wg.Done()
			for _, line := range sc.lines {
				if err := cl.Say(line); err != nil {
					errCh <- fmt.Errorf("%s say: %w", sc.user, err)
					return
				}
			}
			select {
			case <-echoDone:
			case <-time.After(60 * time.Second):
				errCh <- fmt.Errorf("%s: echo timeout", sc.user)
			}
		}(sc)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	// Echoes delivered ⇒ every say is accepted; quiesce to fold queued
	// supervision (and its agent broadcasts) into the measured window.
	if !server.Quiesce(60 * time.Second) {
		return nil, fmt.Errorf("server did not quiesce")
	}
	arm.Elapsed = time.Since(start)
	runtime.ReadMemStats(&after)

	if arm.Elapsed > 0 {
		arm.Throughput = float64(total) / arm.Elapsed.Seconds()
	}
	arm.AllocsPerMsg = float64(after.Mallocs-before.Mallocs) / float64(total)
	arm.BytesPerMsg = float64(after.TotalAlloc-before.TotalAlloc) / float64(total)

	for _, cl := range clients {
		_ = cl.Close()
	}
	rwg.Wait()
	return arm, nil
}
