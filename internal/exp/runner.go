package exp

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/farm"
	"repro/internal/trace"
)

// A row is one experiment of the evaluation, declared as data: the cells
// of its sweep, the seeds every cell runs at, the quick size (the
// scaled-down variant keeps the first quick cells and the first
// quickSeeds seeds; 0 keeps all), the plan of one trial, and the table
// its measurements make. run is the one trial runner: each (cell, seed)
// trial is a farm on a kernel of its own, so trials run in parallel and
// the table does not depend on the order they finish in.
type row[C, M any] struct {
	cells             []C
	seeds             []int64
	quick, quickSeeds int
	plan              func(c C, seed int64, m *M) plan
	// table renders ms[cell][seed] and counts the row's own failed
	// properties (sanity checks); most rows have none.
	table func(cells []C, ms [][]M) (*Table, int)
}

func (r row[C, M]) run(a Args) (*Table, int, error) {
	cells, seeds := r.cells, r.seeds
	if a.Quick && r.quick > 0 {
		cells = cells[:r.quick]
	}
	if a.Quick && r.quickSeeds > 0 {
		seeds = seeds[:r.quickSeeds]
	}
	ms := make([][]M, len(cells))
	for i := range ms {
		ms[i] = make([]M, len(seeds))
	}
	err := each(len(cells)*len(seeds), func(k int) error {
		c, s := k/len(seeds), k%len(seeds)
		return r.plan(cells[c], seeds[s], &ms[c][s]).run()
	})
	if err != nil {
		return nil, 0, err
	}
	t, failed := r.table(cells, ms)
	return t, failed, nil
}

// A plan is one trial: the farm it builds, the stages it goes through,
// the records it watches (the flight recorder is on when sink is set),
// and what it reads once the last stage is done, where the trace does
// not carry the fact (metrics, the event log, Central's state).
type plan struct {
	spec   farm.Spec
	stages []stage
	sink   func(t *trial, r trace.Record)
	end    func(t *trial) error
}

// A stage takes a trial to an anchor and acts there. The anchor is
// reached by running the farm for run; then, when stable is set, until
// the active Central is stable (failing after that long); then, when
// until is set, in steps of every until it holds (failing after limit).
// At the anchor, at runs, and then ops — check DSL text whose times count
// from the anchor — go in through check.Apply at their instants. The
// stage ends at its last op plus the text's settle period (none without a
// settle line, where check.Schedule.Run would settle for its default); a
// held fault reverts on its own schedule.
type stage struct {
	run, stable  time.Duration
	until        func(t *trial) bool
	every, limit time.Duration
	at           func(t *trial) error
	ops          string
}

// trial is a plan's farm while it runs. It is the check.Target its ops
// go into.
type trial struct {
	*farm.Farm
	anchor time.Duration // the instant the latest stage reached its anchor
	moved  time.Duration // when the latest move op's VLAN writes landed
}

// MoveNodeToDomain is the farm's, noting when the writes land (check.Apply
// passes no callback of its own).
func (t *trial) MoveNodeToDomain(node, to string, _ func(error)) error {
	return t.Farm.MoveNodeToDomain(node, to, func(err error) {
		if err == nil {
			t.moved = t.Now()
		}
	})
}

func (p plan) run() error {
	p.spec.Trace = p.spec.Trace || p.sink != nil
	f, err := farm.Build(p.spec)
	if err != nil {
		return err
	}
	t := &trial{Farm: f}
	if p.sink != nil {
		f.Trace.AddSink(func(r trace.Record) { p.sink(t, r) })
	}
	f.Start()
	for _, s := range p.stages {
		if err := t.reach(s); err != nil {
			return fmt.Errorf("exp: seed %d: %w", p.spec.Seed, err)
		}
	}
	if p.end == nil {
		return nil
	}
	return p.end(t)
}

// runTo advances to the instant at; a zero step runs nothing, so an
// anchor at the current instant acts before the events due then.
func (t *trial) runTo(at time.Duration) {
	if d := at - t.Now(); d > 0 {
		t.RunFor(d)
	}
}

func (t *trial) reach(s stage) error {
	t.runTo(t.Now() + s.run)
	if s.stable > 0 {
		if _, ok := t.RunUntilStable(s.stable); !ok {
			return fmt.Errorf("farm not stable after %v", s.stable)
		}
	}
	for waited := time.Duration(0); s.until != nil && !s.until(t); waited += s.every {
		if waited > s.limit {
			return fmt.Errorf("anchor not reached in %v", s.limit)
		}
		t.RunFor(s.every)
	}
	t.anchor = t.Now()
	if s.at != nil {
		if err := s.at(t); err != nil {
			return err
		}
	}
	sched, err := check.Parse(s.ops)
	if err != nil {
		return err
	}
	var end time.Duration
	for _, op := range sched.Ops {
		t.runTo(t.anchor + op.At)
		if err := check.Apply(t, op); err != nil {
			return err
		}
		end = op.At
	}
	t.runTo(t.anchor + end + sched.Settle)
	return nil
}
