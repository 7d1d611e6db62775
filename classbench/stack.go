package main

import (
	"fmt"
	"time"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/journal"
	"semagent/internal/metrics"
)

// stack is the production server stack that
//
//	chatserver -async -batch -wire binary -data DIR -journal
//
// builds, from the same public constructors in the same order:
// journal.LoadStores, journal.Open with group commit, core.New, then
// chat.NewServer with Async, BatchSupervise and the binary wire. It is
// built here and nowhere else.
type stack struct {
	reg    *metrics.Registry
	mgr    *journal.Manager
	sup    *core.Supervisor
	server *chat.Server
	addr   string
}

// newStack boots the stack on the data dir. wrap turns the built
// supervisor into the chat supervisor the server gets: the production
// adapter wrapped for reply counting, or the traced supervisor.
func newStack(dir string, wrap func(*core.Supervisor) chat.Supervisor) (*stack, error) {
	reg := metrics.NewRegistry()
	stores, err := journal.LoadStores(dir)
	if err != nil {
		return nil, fmt.Errorf("load data dir: %w", err)
	}
	// chatserver's defaults: group commit, 5 min / 4 MiB checkpoints.
	mgr, err := journal.Open(dir, stores, journal.Options{
		CheckpointInterval: 5 * time.Minute,
		CheckpointBytes:    4 << 20,
		Metrics:            reg,
	})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	sup, err := core.New(core.Config{
		Ontology: stores.Ontology,
		Corpus:   stores.Corpus,
		Profiles: stores.Profiles,
		FAQ:      stores.FAQ,
		Metrics:  reg,
	})
	if err != nil {
		_ = mgr.Close()
		return nil, fmt.Errorf("build supervisor: %w", err)
	}
	server := chat.NewServer(chat.ServerOptions{
		Supervisor:     wrap(sup),
		Async:          true,
		BatchSupervise: true,
		Metrics:        reg,
	})
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		_ = server.Close()
		_ = mgr.Close()
		return nil, err
	}
	return &stack{reg: reg, mgr: mgr, sup: sup, server: server, addr: addr.String()}, nil
}

// dial joins room as its learner over the binary wire.
func (s *stack) dial(room int) (*chat.Client, error) {
	return chat.DialWire(s.addr, rooms[room], learner(room), chat.WireBinary, 10*time.Second)
}

// close drains supervision, then checkpoints and seals the journal.
func (s *stack) close() error {
	serr := s.server.Close()
	if err := s.mgr.Close(); err != nil {
		return fmt.Errorf("close journal: %w", err)
	}
	return serr
}
