package main

import (
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/cluster"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// The wrappers below time a layer from outside by standing in for the
// interface the layer calls. Each forwards every call unchanged, together
// with the optional reporter interfaces callers look for, so a wrapped run
// produces byte-identical simulated outputs (checked by every workload).

// timedPolicy times every server.Policy callback into its probe.
type timedPolicy struct {
	inner    server.Policy
	p        *probe
	tickKind int // kTick, or kShardTick for fleet shards
	arrKind  int // kCallback, or kBaseline for ReTail and Gemini
	// arrivals and completions count the callbacks, an observation of
	// the server's counters independent of the server's own.
	arrivals, completions uint64
}

var (
	_ server.Policy        = (*timedPolicy)(nil)
	_ server.StatsReporter = (*timedPolicy)(nil)
)

func newTimedPolicy(inner server.Policy, p *probe, tickKind, arrKind int) *timedPolicy {
	return &timedPolicy{inner: inner, p: p, tickKind: tickKind, arrKind: arrKind}
}

func (w *timedPolicy) Name() string          { return w.inner.Name() }
func (w *timedPolicy) Init(c server.Control) { w.inner.Init(c) }

func (w *timedPolicy) OnTick(now sim.Time) {
	t0 := time.Now()
	w.inner.OnTick(now)
	w.p.add(w.tickKind, int64(time.Since(t0)))
}

func (w *timedPolicy) OnArrival(r *server.Request) {
	t0 := time.Now()
	w.inner.OnArrival(r)
	w.p.add(w.arrKind, int64(time.Since(t0)))
	w.arrivals++
}

func (w *timedPolicy) OnDispatch(r *server.Request, core int) {
	t0 := time.Now()
	w.inner.OnDispatch(r, core)
	w.p.add(w.arrKind, int64(time.Since(t0)))
}

func (w *timedPolicy) OnComplete(r *server.Request, core int) {
	t0 := time.Now()
	w.inner.OnComplete(r, core)
	w.p.add(kCallback, int64(time.Since(t0)))
	w.completions++
}

// ResultStats forwards server.StatsReporter; a policy without it reports
// nil, which the server records exactly as if the interface were absent.
func (w *timedPolicy) ResultStats() map[string]float64 {
	if sr, ok := w.inner.(server.StatsReporter); ok {
		return sr.ResultStats()
	}
	return nil
}

// timedAgent wraps an agent.Trainable. An OnTick that advances the agent's
// step count is one decision (observe, replay push, learner update, act)
// and becomes a span of its own; other ticks count as controller ticks.
type timedAgent struct {
	*timedPolicy
	inner agent.Trainable
	steps interface{ StepCount() int }
	tr    *tracer
	unit  int32
}

var (
	_ agent.Trainable          = (*timedAgent)(nil)
	_ agent.LossReporter       = (*timedAgent)(nil)
	_ agent.DivergenceReporter = (*timedAgent)(nil)
)

func newTimedAgent(inner agent.Trainable, p *probe, tr *tracer) *timedAgent {
	a := &timedAgent{timedPolicy: newTimedPolicy(inner, p, kTick, kCallback), inner: inner, tr: tr}
	a.steps, _ = inner.(interface{ StepCount() int })
	return a
}

func (a *timedAgent) OnTick(now sim.Time) {
	before := 0
	if a.steps != nil {
		before = a.steps.StepCount()
	}
	start := a.tr.now()
	a.inner.OnTick(now)
	end := a.tr.now()
	if a.steps != nil && a.steps.StepCount() != before {
		a.p.add(kDecide, end-start)
		if a.tr.on {
			a.tr.endAt(a.tr.beginAt("decision", a.unit, start), end)
		}
		return
	}
	a.p.add(kTick, end-start)
}

func (a *timedAgent) SetTrain(train bool) { a.inner.SetTrain(train) }
func (a *timedAgent) Return() float64     { return a.inner.Return() }

func (a *timedAgent) LastCriticLoss() float64 {
	if lr, ok := a.inner.(agent.LossReporter); ok {
		return lr.LastCriticLoss()
	}
	return 0
}

func (a *timedAgent) DivergenceCount() uint64 {
	if dr, ok := a.inner.(agent.DivergenceReporter); ok {
		return dr.DivergenceCount()
	}
	return 0
}

// timedBalancer wraps a cluster.Balancer. The fleet routes each epoch's
// arrivals serially before advancing its shards, and pending[] is zeroed at
// every epoch start, so a Pick that sees no pending request is the first of
// a new epoch: its start time is the epoch boundary. Traced, it also times
// every Pick and calls onEpoch at each boundary with the closing epoch's
// routing window.
type timedBalancer struct {
	inner  cluster.Balancer
	traced bool
	// epochStarts holds the host time of each epoch's first Pick.
	epochStarts []time.Time
	picks       int64
	p           probe
	// lastPickEnd is when the latest Pick returned (traced only).
	lastPickEnd time.Time
	onEpoch     func(start, routedUntil, end time.Time)
}

var _ cluster.Balancer = (*timedBalancer)(nil)

func (b *timedBalancer) Name() string { return b.inner.Name() }

func (b *timedBalancer) Pick(at sim.Time, shards []cluster.ShardState, pending []int) int {
	first := true
	for _, n := range pending {
		if n != 0 {
			first = false
			break
		}
	}
	var t0 time.Time
	if first || b.traced {
		t0 = time.Now()
	}
	if first {
		if n := len(b.epochStarts); n > 0 && b.onEpoch != nil {
			b.onEpoch(b.epochStarts[n-1], b.lastPickEnd, t0)
		}
		b.epochStarts = append(b.epochStarts, t0)
	}
	i := b.inner.Pick(at, shards, pending)
	b.picks++
	if b.traced {
		b.lastPickEnd = time.Now()
		b.p.add(kPick, int64(b.lastPickEnd.Sub(t0)))
	}
	return i
}

// epochMS returns the host duration of every epoch that has a successor
// (the last epoch's end is hidden inside cluster.Run's result assembly).
func (b *timedBalancer) epochMS() []float64 {
	var out []float64
	for i := 1; i < len(b.epochStarts); i++ {
		out = append(out, float64(b.epochStarts[i].Sub(b.epochStarts[i-1]))/1e6)
	}
	return out
}
