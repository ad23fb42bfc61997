package main

import (
	"fmt"
	"time"

	"tesla/internal/bo"
	"tesla/internal/control"
	"tesla/internal/dataset"
	"tesla/internal/model"
	"tesla/internal/testbed"
)

// Span kinds. Every span is recorded by this package around a call into a
// public function or hook of the program; nothing inside the program is
// instrumented.
const (
	spanStep     uint8 = iota // Runner.Step, the root of one room-step
	spanAdvance               // StepHook BeforeStep → AfterSample
	spanDecide                // the policy's Decide, inside the supervisor
	spanPredict               // side call: one Predict at the chosen set-point
	spanOptimize              // side call: Optimize replaying the decision's evaluations
	spanWrite                 // Config.Actuate: the set-point register write
	spanPoll                  // Config.Publish: refresh, one poll sweep, drain
	spanPrepare               // experiment.Prepare
	spanRunners               // NewRunner for every room (build + warm-up)
	spanFieldbus              // device sims, gateway devices and pollers
	spanFinish                // one room's Runner.Finish
	spanKinds
)

var spanNames = [spanKinds]string{
	"fleet.step", "testbed.advance", "control.decide", "model.predict", "bo.optimize",
	"gateway.write", "gateway.poll", "setup.prepare", "setup.runner", "setup.fieldbus",
	"store.finish",
}

const noParent, noRoom = -1, -1

// span is one timed call. Start and end are nanoseconds since the run's
// epoch; parent indexes the causing span in the same list. N carries a count
// the call produced (the evaluations a replayed optimisation made).
type span struct {
	name       uint8
	room, step int32
	episode    int32
	parent     int32
	n          int32
	start, end int64
}

// appendSpans appends src to dst, moving src's parent indices with it.
func appendSpans(dst, src []span) []span {
	off := int32(len(dst))
	for _, s := range src {
		if s.parent != noParent {
			s.parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// probe records one room's spans. A room is stepped by one worker at a time,
// so its probe needs no lock.
type probe struct {
	epoch   time.Time
	room    int32
	episode int32
	spans   []span
	cur     int32 // open step span, parent of every call inside it
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// open starts a room-step span and returns its index.
func (p *probe) open(step int) int32 {
	p.cur = int32(len(p.spans))
	p.spans = append(p.spans, span{name: spanStep, room: p.room, step: int32(step),
		episode: p.episode, parent: noParent, start: p.now()})
	return p.cur
}

func (p *probe) close(i int32) {
	p.spans[i].end = p.now()
	p.cur = noParent
}

// child records a call inside the open step span.
func (p *probe) child(name uint8, start, end int64, n int) {
	parent := p.spans[p.cur]
	p.spans = append(p.spans, span{name: name, room: p.room, step: parent.step,
		episode: p.episode, parent: p.cur, n: int32(n), start: start, end: end})
}

// advanceHook times the plant's Advance from outside: it is the last step
// hook registered, and hooks run in order around the physics integration.
type advanceHook struct {
	p     *probe
	start int64
}

func (h *advanceHook) BeforeStep(*testbed.Testbed) { h.start = h.p.now() }

func (h *advanceHook) AfterSample(*testbed.Testbed, *testbed.Sample) {
	h.p.child(spanAdvance, h.start, h.p.now(), 0)
}

// tracedPolicy is what the traced run's PolicyFactory returns, so it runs
// inside safety.Supervisor exactly where the policy itself would. It times
// Decide and, for TESLA, makes two read-only side calls after it: one
// model.Predict at the chosen set-point, and one bo.Optimize with the
// decision's own seed replaying the decision's evaluations.
// errmon.Monitor.Objective and Constraint advance the monitor's RNG, so they
// are never side-called.
type tracedPolicy struct {
	inner   control.Policy
	durable control.Durable
	p       *probe

	tesla    *control.TESLA
	model    *model.Model
	boCfg    bo.Config
	seed     uint64
	k        uint64 // optimisations so far: the policy seeds the k-th with seed ^ k·0x9e37
	lastRes  *bo.Result
	lastDiag control.Diagnostics
	stats    *replayStats
}

// replayStats counts what the side calls observed for one room.
type replayStats struct {
	optimizes, evals, feasible uint64
	misses, mismatches         uint64
}

func newTracedPolicy(inner control.Policy, p *probe, tesla *control.TESLA, m *model.Model, boCfg bo.Config, seed uint64, st *replayStats) (*tracedPolicy, error) {
	d, ok := inner.(control.Durable)
	if !ok {
		// The fleet checkpoints only Durable policies; a wrapper that hid
		// Durable would change what the traced run writes.
		return nil, fmt.Errorf("perfbench: policy %s is not durable", inner.Name())
	}
	return &tracedPolicy{inner: inner, durable: d, p: p, tesla: tesla, model: m, boCfg: boCfg, seed: seed, stats: st}, nil
}

func (t *tracedPolicy) Name() string              { return t.inner.Name() }
func (t *tracedPolicy) Snapshot() ([]byte, error) { return t.durable.Snapshot() }
func (t *tracedPolicy) Restore(b []byte) error    { return t.durable.Restore(b) }

func (t *tracedPolicy) Decide(tr *dataset.Trace, step int) float64 {
	start := t.p.now()
	sp := t.inner.Decide(tr, step)
	t.p.child(spanDecide, start, t.p.now(), 0)
	if t.tesla != nil {
		t.sideCalls(tr, step)
	}
	return sp
}

func (t *tracedPolicy) sideCalls(tr *dataset.Trace, step int) {
	res, diag := t.tesla.LastResult(), t.tesla.Diagnostics()
	fresh := res != nil && res != t.lastRes
	optimised := fresh || diag.OptimizerFallbacks > t.lastDiag.OptimizerFallbacks
	t.lastRes, t.lastDiag = res, diag
	if !optimised {
		return
	}
	k := t.k
	t.k++
	if !fresh {
		return
	}
	t.stats.optimizes++
	t.stats.evals += uint64(len(res.Evals))
	if res.Feasible {
		t.stats.feasible++
	}

	if h, err := model.HistoryAt(tr, step, t.model.Config().L); err == nil {
		start := t.p.now()
		_, _ = t.model.Predict(h, res.X) // timed only; the result is the policy's own
		t.p.child(spanPredict, start, t.p.now(), 1)
	}

	cfg := t.boCfg
	cfg.Seed = t.seed ^ (k * 0x9e37)
	replay := func(x float64) bo.Evaluation {
		for _, e := range res.Evals {
			if e.X == x {
				return e
			}
		}
		t.stats.misses++
		return bo.Evaluation{X: x, Obj: 1e6, Con: 1e6, ObjNoiseVar: 1, ConNoiseVar: 1}
	}
	start := t.p.now()
	got, err := bo.Optimize(cfg, replay)
	t.p.child(spanOptimize, start, t.p.now(), len(res.Evals))
	if err != nil || got.X != res.X || got.Feasible != res.Feasible || len(got.Evals) != len(res.Evals) {
		t.stats.mismatches++
	}
}
