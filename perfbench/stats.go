package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky samples, not a tail.
const minBeyond = 10

// rank returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted samples
// and how many samples rank above it.
func rank(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	k := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based rank
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

// tail returns the p-quantile of sorted samples, or an error when fewer
// than minBeyond samples lie above it.
func tail(sorted []float64, p float64) (float64, error) {
	v, beyond := rank(sorted, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

// median returns the middle of unsorted samples (mean of the middle two for
// an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// repeats holds the host times of one piece of work done several times
// over: runs[r][j] is unit j's time in repeat r. Every workload repeats
// identical work because this benchmark's reference machine, a 2-vCPU VM
// sharing its host, runs a fixed millisecond of work anywhere from its
// fastest to about twice that, changing from one sample to the next, and
// how often it runs slow changes over minutes. A unit's fastest repeat is
// the code's speed under the least interference, and moves least from run
// to run; an average, or a unit long enough to average over the
// interference itself, moves with the other tenants' load.
type repeats struct {
	runs [][]float64
}

func (r *repeats) add(run []float64) { r.runs = append(r.runs, run) }

// best returns each unit's fastest repeat.
func (r *repeats) best() []float64 {
	out := append([]float64(nil), r.runs[0]...)
	for _, run := range r.runs[1:] {
		for j, v := range run {
			if j < len(out) {
				out[j] = min(out[j], v)
			}
		}
	}
	return out
}

// bestTotal is the sum of the units' fastest repeats.
func (r *repeats) bestTotal() float64 {
	var t float64
	for _, v := range r.best() {
		t += v
	}
	return t
}

// timing records a control-period host-time distribution as two metrics
// over each period's fastest repeat: the median, and the p95 under the
// tail rule: of p90, p95 and p99, the highest the rule allows on train's
// 320 and fleet's 299 periods a repeat. Too few periods fails an
// untraced run; a traced run, which reports no end-to-end metrics, only
// notes it.
func (b *bench) timing(prefix, unit string, r *repeats) {
	best := sorted(r.best())
	b.set(prefix+"_p50", median(best), unit)
	v, err := tail(best, 0.95)
	if err == nil {
		b.set(prefix+"_p95", v, unit)
	}
	if !b.traced {
		b.check(prefix+"_p95 sample count", err == nil, "%d periods, each at its fastest of %d repeats", len(best), len(r.runs))
	} else if err != nil {
		fmt.Fprintf(b.out, "note %s: %v\n", prefix, err)
	}
}

// setupTimer times a workload's setup, which builds what it runs, for
// setup_s. Setups are timed in slots spread over the run, one before the
// work and one after each repeat of it; a slot times k setups and slot i
// belongs to round i mod rounds. A round counts its fastest setup, for the
// reason repeats keeps fastest repeats, and setup_s is the median over
// rounds. The machine also runs slow for stretches of a second or so:
// rounds that interleave over the whole run each reach its fast stretches,
// where setups timed back to back at its start can all fall in one slow
// stretch. A slot forces no collection: one at the same point of every
// repeat would make the collector's cycles fall on the same periods of
// every repeat, and their fastest repeats would all carry one.
type setupTimer struct {
	k       int
	slots   int
	setup   func() (undo func(), err error)
	fastest []float64
}

// newSetupTimer returns a timer of rounds rounds and k setups a slot. A
// non-nil undo returned by setup runs after its timing.
func newSetupTimer(rounds, k int, setup func() (undo func(), err error)) *setupTimer {
	s := &setupTimer{k: k, setup: setup, fastest: make([]float64, rounds)}
	for i := range s.fastest {
		s.fastest[i] = math.Inf(1)
	}
	return s
}

// slot times k setups. Inside a timed phase, pass it: the slot's time,
// allocation and GC work are taken out of the phase's.
func (s *setupTimer) slot(ph *phase) error {
	start, rt := time.Now(), readRuntime()
	r := s.slots % len(s.fastest)
	for i := 0; i < s.k; i++ {
		t0 := time.Now()
		undo, err := s.setup()
		d := time.Since(t0).Seconds()
		if undo != nil {
			undo()
		}
		if err != nil {
			return err
		}
		s.fastest[r] = min(s.fastest[r], d)
	}
	s.slots++
	if ph != nil {
		ph.exclude(start, rt)
	}
	return nil
}

// record sets setup_s.
func (s *setupTimer) record(b *bench) error {
	if s.slots < len(s.fastest) {
		return fmt.Errorf("setup timed in %d slots, fewer than its %d rounds", s.slots, len(s.fastest))
	}
	b.set("setup_s", median(s.fastest), "s")
	return nil
}
