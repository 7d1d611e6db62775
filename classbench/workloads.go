package main

import (
	"fmt"

	"semagent/internal/ontology"
	"semagent/internal/workload"
)

// spec is one benchmark workload: the learners' line mix, the store
// state every round starts from, and the size of a round's two load
// phases. The sizes are line counts, not durations, so every commit
// grows the stores by the same amount.
type spec struct {
	Name string
	// Mix is the workload.Generator mix the learners' lines come from.
	Mix workload.Mix
	// Semester starts every round from the pre-built semester stores
	// (fixture.go); otherwise the data dir starts empty.
	Semester bool
	// Rate is the open-loop send rate in lines/s over both rooms, well
	// below half of what the seed commit sustains at this store size
	// (README.md says why).
	Rate float64
	// OpenLines and ClosedLines are a round's line counts per phase.
	// OpenLines yields at least 1,000 feedback samples.
	OpenLines, ClosedLines int
	// RoundSeconds is one round's wall time at the seed commit, setup
	// and teardown included. It only sets how many rounds a run of
	// given seconds makes.
	RoundSeconds float64
}

// specs are the benchmark's workloads; README.md says why each exists.
var specs = []spec{
	{
		Name:         "week-one",
		Mix:          workload.Mix{Correct: 0.35, SyntaxError: 0.4, SemanticError: 0.1, Question: 0.15, OutOfOntology: 0.2},
		Rate:         600,
		OpenLines:    2600,
		ClosedLines:  2400,
		RoundSeconds: 5.3,
	},
	{
		Name:         "semester",
		Mix:          workload.DefaultMix(),
		Semester:     true,
		Rate:         400,
		OpenLines:    2400,
		ClosedLines:  2000,
		RoundSeconds: 7.5,
	},
	{
		Name:         "fluent",
		Mix:          workload.Mix{Correct: 0.5, SemanticError: 0.25, Question: 0.25, OutOfOntology: 0.2},
		Semester:     true,
		Rate:         1200,
		OpenLines:    2600,
		ClosedLines:  4000,
		RoundSeconds: 3,
	},
}

// Semester history: a fixed classroom (8 rooms of 6 learners) whose
// generated dialogue of historyMessages lines is run through the
// program's own supervisor and saved as the stores semester and fluent
// start from. The size and seed are part of the workload definition,
// not of the run.
const (
	historyMessages = 20000
	historySeed     = 2005
	historyRooms    = 8
	historyUsers    = 6
)

// rounds is how many rounds a run of the given seconds makes.
func (s spec) rounds(seconds float64) int {
	return max(1, int(seconds/s.RoundSeconds+0.5))
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want week-one, semester or fluent)", name)
}

// rooms are the two classrooms; each has one learner on its own
// connection.
var rooms = [2]string{"room-0", "room-1"}

func learner(room int) string { return fmt.Sprintf("learner-%d", room) }

// phaseLines are one load phase's lines, per room, in send order.
type phaseLines [2][]string

// plan is every line a round sends: the open-loop phase, then the
// closed-loop phase.
type plan struct {
	Open, Closed phaseLines
}

// makePlan draws a round's lines from workload.Generator: open lines
// first, then closed ones, alternating between the two rooms. Every
// round of a run sends the same plan.
func makePlan(s spec, seed int64) plan {
	open, closed := s.OpenLines, s.ClosedLines
	gen := workload.NewGenerator(seed, ontology.BuildCourseOntology())
	samples := gen.Generate(open+closed, s.Mix)
	var p plan
	for i, smp := range samples {
		ph := &p.Open
		if i >= open {
			ph = &p.Closed
		}
		ph[i%2] = append(ph[i%2], smp.Text)
	}
	return p
}

func (p phaseLines) total() int { return len(p[0]) + len(p[1]) }
