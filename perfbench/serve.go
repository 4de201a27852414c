package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/serve"
	"github.com/deeppower/deeppower/internal/server"
)

// The serve workload drives an in-process daemon (the guarded thread
// controller) over two loopback connections. A closed loop with a pipeline
// window measures wire throughput; then an open loop steps through a fixed
// ladder of constant rates, each on a fresh daemon so one step's backlog
// cannot leak into the next.
// serveParams is the served thread controller's fixed operating point.
var serveParams = control.Params{BaseFreq: 0.4, ScalingCoef: 0.5}

const (
	serveConns   = 2
	serveWindow  = 32 // requests in flight per connection in the closed loop
	refRate      = 50_000
	rttLimitMS   = 20.0 // wire p99 limit for max_rate_rps: the profile's SLA
	sloTimeouts  = 0.01 // the paper's Eq. 2 budget
	sampleEvery  = 2 * time.Millisecond
	drainTimeout = time.Second
)

var serveLadder = []float64{25_000, refRate, 100_000, 150_000, 200_000, 300_000}

// serveStep is one open-loop ladder step's outcome.
type serveStep struct {
	rate        float64
	sent, ok    uint64
	failed      uint64 // non-204, unanswered, or on a failed connection
	rttMS       []float64
	lateMS      []float64
	lagMS       []float64
	inFlight    []float64 // backend backlog samples
	backlogMax  float64
	tel         serve.Telemetry
	res         *server.Result
	timeoutFrac float64
	grew        bool
}

// daemonConns starts a daemon and dials its connections.
func daemonConns(seed int64) (*serve.Daemon, []net.Conn, error) {
	method := fmt.Sprintf("controller:%g,%g", serveParams.BaseFreq, serveParams.ScalingCoef)
	d, err := serve.NewDaemon(serve.DaemonConfig{Method: method, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	if err := d.Start(); err != nil {
		return nil, nil, err
	}
	var conns []net.Conn
	for i := 0; i < serveConns; i++ {
		c, err := net.Dial("tcp", d.Addr())
		if err != nil {
			closeAll(d, conns)
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	return d, conns, nil
}

func closeAll(d *serve.Daemon, conns []net.Conn) *server.Result {
	for _, c := range conns {
		c.Close()
	}
	return d.Stop()
}

// serveSetup is what a user waits for before the first request is
// answered: daemon construction and start, two connections, one round trip
// on each. undo stops the daemon.
func serveSetup(seed int64) (undo func(), err error) {
	d, conns, err := daemonConns(seed)
	if err != nil {
		return nil, err
	}
	undo = func() { closeAll(d, conns) }
	buf := make([]byte, 256)
	for _, c := range conns {
		var rd respReader
		if _, err := c.Write(request); err != nil {
			return undo, err
		}
		for rd.ok+rd.bad == 0 {
			n, err := c.Read(buf)
			if _, perr := rd.feed(buf[:n]); err != nil || perr != nil {
				return undo, fmt.Errorf("setup round trip: %v %v", err, perr)
			}
		}
	}
	return undo, nil
}

// onConns runs fn once per connection on its own goroutine and waits.
func onConns(conns []net.Conn, fn func(i int, c net.Conn) connStats) []connStats {
	out := make([]connStats, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			out[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	return out
}

// closedWindow is how long one closed-loop daemon serves. Every admitted
// request enters the simulated backend, which the closed loop overloads on
// purpose; a fresh daemon per window, with the last one's heap collected
// between windows, bounds the backlog, and so the process's memory, to one
// window's excess.
const closedWindow = 100 * time.Millisecond

// closedPhase runs the closed loop for dur, in windows, and returns the wire
// throughput.
func (b *bench) closedPhase(dur time.Duration) (float64, error) {
	var sent, ok, bad, unequal uint64
	var el float64
	windows := int((dur + closedWindow - 1) / closedWindow)
	for w := 0; w < windows; w++ {
		runtime.GC()
		d, conns, err := daemonConns(b.seed)
		if err != nil {
			return 0, err
		}
		id := b.tr.begin("closed_window", int32(w))
		t0 := time.Now()
		until := t0.Add(closedWindow)
		stats := onConns(conns, func(_ int, c net.Conn) connStats { return closedLoop(c, serveWindow, until) })
		el += time.Since(t0).Seconds()
		tel := settledTelemetry(d)
		b.tr.end(id)
		closeAll(d, conns)
		for _, s := range stats {
			if s.err != nil {
				return 0, fmt.Errorf("closed loop: %w", s.err)
			}
			sent, ok, bad = sent+s.sent, ok+s.ok, bad+s.bad
		}
		if tel.Accepted != tel.Responded {
			unequal++
		}
	}
	b.attempted += int64(sent)
	b.failed += int64(sent - ok)
	b.check("closed loop: sent = answered", sent == ok+bad && bad == 0, "sent %d, 204 %d, other %d", sent, ok, bad)
	b.check("closed loop: accepted = responded", unequal == 0, "%d of %d windows differ", unequal, windows)
	return float64(ok) / el, nil
}

// The replay runs replayPeriods 1 ms bridge periods, replayRepeats times.
const (
	replayPeriods = 5000
	replayRepeats = 10
)

// replays collects repeats of replayBridge, which is deterministic, so its
// repeats do identical work. They are spread over the run, between its
// other phases.
type replays struct {
	periods   repeats
	completed uint64
}

func (b *bench) replayOnce(r *replays) error {
	periods, completed, err := b.replayBridge()
	if err != nil {
		return err
	}
	r.periods.add(periods)
	r.completed = completed
	return nil
}

// replayBridge times the bridge's per-period work without the wall clock:
// the reference rate's arrivals, injected period by period into the same
// simulated backend and guarded policy the daemon builds, each period then
// advanced to its end, as Bridge.advanceTo does. It returns the host time
// of every period and how many requests completed.
func (b *bench) replayBridge() ([]float64, uint64, error) {
	// The daemon's backend: its profile, seed and default latency cap.
	act, err := serve.NewSimActuator(server.Config{App: serve.DefaultProfile(), Seed: b.seed, LatencyCap: 65536},
		fault.NewGuardedPolicy(control.NewThreadController(serveParams), fault.GuardConfig{}))
	if err != nil {
		return nil, 0, err
	}
	if err := act.Begin(time.Hour); err != nil {
		return nil, 0, err
	}
	id := b.tr.begin("bridge_replay", 0)
	iv := time.Duration(float64(time.Second) / refRate)
	periods := make([]float64, 0, replayPeriods)
	next := time.Duration(0) // due time of the next arrival
	for k := 1; k <= replayPeriods; k++ {
		end := time.Duration(k) * time.Millisecond
		t0 := time.Now()
		for ; next < end; next += iv {
			if err := act.Inject(next); err != nil {
				return nil, 0, err
			}
		}
		if err := act.Advance(end); err != nil {
			return nil, 0, err
		}
		periods = append(periods, float64(time.Since(t0))/1e6)
	}
	b.tr.end(id)
	res := act.End()
	return periods, res.Counters.Completions, nil
}

// settledTelemetry samples the daemon's telemetry once every reply it has
// written is counted, or after drainTimeout. The daemon counts a write when
// Write returns, and over loopback the client can read the reply before
// that.
func settledTelemetry(d *serve.Daemon) serve.Telemetry {
	deadline := time.Now().Add(drainTimeout)
	for {
		tel := d.Telemetry()
		if tel.Accepted == tel.Responded || time.Now().After(deadline) {
			return tel
		}
		time.Sleep(time.Millisecond)
	}
}

// openStep runs one ladder rate on a fresh daemon, sampling its telemetry
// from this goroutine while the two connection goroutines send.
func (b *bench) openStep(rate float64, dur time.Duration, unit int32) (*serveStep, error) {
	st := &serveStep{rate: rate}
	d, conns, err := daemonConns(b.seed)
	if err != nil {
		return nil, err
	}
	id := b.tr.begin("open_step", unit)
	b.tr.attr(id, "rate", rate)
	per := rate / serveConns
	scheds := make([]*schedule, len(conns))
	start := time.Now().Add(5 * time.Millisecond)
	for i := range scheds {
		// Connections are offset by half an interval so the merged stream
		// is evenly spaced.
		iv := time.Duration(float64(time.Second) / per)
		scheds[i] = &schedule{start: start.Add(time.Duration(i) * iv / serveConns), interval: iv, total: int(per * dur.Seconds())}
	}
	type result struct {
		i int
		s connStats
	}
	done := make(chan result, len(conns)) // one send per connection
	for i, c := range conns {
		go func(i int, c net.Conn) { done <- result{i, openLoop(c, scheds[i], drainTimeout)} }(i, c)
	}
	stats := make([]connStats, len(conns))
	tick := time.NewTicker(sampleEvery)
	for left := len(conns); left > 0; {
		select {
		case r := <-done:
			stats[r.i] = r.s
			left--
		case <-tick.C:
			tel := d.Telemetry()
			if time.Now().After(start) {
				st.lagMS = append(st.lagMS, tel.BridgeLagMS)
				st.inFlight = append(st.inFlight, float64(tel.InFlight))
			}
		}
	}
	tick.Stop()
	did := b.tr.begin("drain", unit)
	for deadline := time.Now().Add(drainTimeout); ; time.Sleep(5 * time.Millisecond) {
		st.tel = d.Telemetry()
		settled := st.tel.InFlight == 0 && st.tel.QueueLen == 0 && st.tel.Accepted == st.tel.Responded
		if settled || time.Now().After(deadline) {
			break
		}
	}
	b.tr.end(did)
	st.res = closeAll(d, conns)
	b.tr.end(id)

	for _, s := range stats {
		st.sent += s.sent
		st.ok += s.ok
		st.failed += s.sent - s.ok
		st.rttMS = append(st.rttMS, s.rttMS...)
		st.lateMS = append(st.lateMS, s.lateMS...)
	}
	c := st.res.Counters
	// Completions over the SLA, plus requests never completed (refused,
	// failed, or still in the backend when it stopped), over requests sent.
	st.timeoutFrac = float64(c.Timeouts+st.sent-min(st.sent, c.Completions)) / float64(st.sent)
	st.grew = backlogGrew(st.inFlight, 32)
	for _, v := range st.inFlight {
		st.backlogMax = max(st.backlogMax, v)
	}
	return st, nil
}

// backlogGrew reports whether the sampled backend backlog rose across the
// step: the mean of its last third exceeds twice the mean of its first third
// plus one request per simulated core. A steady backlog fluctuates around a
// level set by the rate; an overloaded one climbs for the whole step.
func backlogGrew(samples []float64, cores int) bool {
	n := len(samples) / 3
	if n == 0 {
		return false
	}
	var first, last float64
	for i := 0; i < n; i++ {
		first += samples[i]
		last += samples[len(samples)-n+i]
	}
	first /= float64(n)
	last /= float64(n)
	return last > 2*first+float64(cores)
}

// stepOK reports whether a step meets all three conditions of max_rate_rps.
func stepOK(s *serveStep) bool {
	p99, err := tail(sorted(s.rttMS), 0.99)
	return err == nil && p99 <= rttLimitMS && s.timeoutFrac <= sloTimeouts && !s.grew && s.failed == 0
}

// maxRate returns the highest ladder rate up to which every step passed:
// the ladder stops at its first failing step, so a rate above a failure is
// never credited.
func maxRate(rates []float64, ok []bool) float64 {
	best := 0.0
	for i, r := range rates {
		if !ok[i] {
			break
		}
		best = r
	}
	return best
}

func runServe(b *bench) error {
	setups := newSetupTimer(3, 10, func() (func(), error) { return serveSetup(b.seed) })
	if err := setups.slot(nil); err != nil {
		return err
	}

	closedDur := b.budget(0.2)
	wire, err := b.closedPhase(closedDur)
	if err != nil {
		return err
	}
	if err := setups.slot(nil); err != nil {
		return err
	}
	if b.traced {
		// A second closed loop with the tracer on gives the overhead.
		w2, err := b.closedPhase(closedDur)
		if err != nil {
			return err
		}
		b.layer["trace.overhead_frac"] = wire/w2 - 1
	}
	b.set("wire_req_per_s", wire, "1/s")
	var rp replays
	if err := b.replayOnce(&rp); err != nil {
		return err
	}

	// The ladder stops at its first failing step above the reference
	// rate, which on a 2-CPU machine comes after four steps.
	stepDur := b.budget(0.15)
	var steps []*serveStep
	var oks []bool
	var ref *serveStep
	// Each step starts from a collected heap, so an earlier phase's garbage
	// is not collected during it. Allocation is measured over the
	// fixed-rate steps up to the reference rate: the same work every run.
	var fixed phaseCost
	for i, rate := range serveLadder {
		runtime.GC()
		ph := startPhase()
		st, err := b.openStep(rate, stepDur, int32(i+1))
		if rate <= refRate {
			c := ph.stop()
			fixed.secs += c.secs
			fixed.allocMB += c.allocMB
			fixed.gcCycles += c.gcCycles
			fixed.gcCPUFrac = c.gcCPUFrac
		}
		if err != nil {
			return err
		}
		steps = append(steps, st)
		if err := setups.slot(nil); err != nil {
			return err
		}
		if len(rp.periods.runs) < replayRepeats {
			if err := b.replayOnce(&rp); err != nil {
				return err
			}
		}
		ok := stepOK(st)
		oks = append(oks, ok)
		p99, _ := tail(sorted(st.rttMS), 0.99)
		fmt.Fprintf(b.out, "step rate=%-7.0f sent=%-7d failed=%-5d rtt_p50=%.3fms rtt_p99=%.3fms late_p99=%.3fms timeout_frac=%.5f backlog_grew=%v ok=%v\n",
			rate, st.sent, st.failed, median(st.rttMS), p99, quantile(st.lateMS, 0.99), st.timeoutFrac, st.grew, ok)
		if rate == refRate {
			ref = st
		} else {
			st.rttMS, st.lateMS, st.lagMS, st.inFlight = nil, nil, nil, nil
		}
		if !ok && rate > refRate {
			break
		}
	}

	for _, st := range steps {
		b.attempted += int64(st.sent)
		if st.rate <= refRate {
			// Below and at the reference rate every request must be
			// answered; above it, losses are what max_rate_rps measures.
			b.failed += int64(st.failed)
		}
	}
	b.check("open loop: sent = answered + errors", ref.failed == 0 && ref.sent == ref.ok,
		"reference rate: sent %d, 204 %d", ref.sent, ref.ok)
	b.check("open loop: accepted = responded", ref.tel.Accepted == ref.tel.Responded && ref.tel.Accepted == ref.sent,
		"reference rate after drain: accepted %d, responded %d", ref.tel.Accepted, ref.tel.Responded)
	b.check("open loop: backend drained", ref.tel.InFlight == 0, "reference rate: %d in flight", ref.tel.InFlight)

	b.set("rtt_ms_p50", median(ref.rttMS), "ms")
	if v, err := tail(sorted(ref.rttMS), 0.99); err == nil {
		b.set("rtt_ms_p99", v, "ms")
	}
	b.set("max_rate_rps", maxRate(serveLadder[:len(oks)], oks), "1/s")
	// period_ms and sim_req_per_s come from the replay: the live lag
	// samples carry the machine's scheduling jitter (they are reported as
	// the serve layer's bridge lag), the replay only the per-period work.
	for len(rp.periods.runs) < replayRepeats {
		if err := b.replayOnce(&rp); err != nil {
			return err
		}
	}
	b.timing("period_ms", "ms", &rp.periods)
	b.set("sim_req_per_s", float64(rp.completed)/(rp.periods.bestTotal()/1e3), "1/s")
	if err := setups.record(b); err != nil {
		return err
	}
	b.set("sim_timeout_frac", ref.timeoutFrac, "fraction")
	b.set("sim_energy_mj_per_req", ref.res.EnergyJ*1e3/float64(ref.res.Counters.Completions), "mJ")
	if err := b.finishCommon(fixed, 1); err != nil {
		return err
	}
	if b.traced {
		var accepted, responded, bad, segs, fallbacks uint64
		var backlog float64
		for _, st := range steps {
			accepted += st.tel.Accepted
			responded += st.tel.Responded
			bad += st.tel.BadRequests
			segs += st.tel.SegsRun
			fallbacks += st.tel.GuardFallbacks
			backlog = max(backlog, st.backlogMax)
		}
		b.layer["serve.accepted"] = float64(accepted)
		b.layer["serve.responded"] = float64(responded)
		b.layer["serve.bad_requests"] = float64(bad)
		b.layer["serve.segments"] = float64(segs)
		b.layer["serve.backlog_max"] = backlog
		b.layer["serve.bridge_lag_ms_p50"] = median(ref.lagMS)
		b.layer["serve.bridge_lag_ms_p99"] = quantile(ref.lagMS, 0.99)
		b.layer["serve.client_late_ms_p99"] = quantile(ref.lateMS, 0.99)
		b.layer["fault.guard_fallbacks"] = float64(fallbacks)
	}
	return nil
}

// quantile is the nearest-rank quantile of unsorted samples, for figures
// printed without the tail rule.
func quantile(xs []float64, p float64) float64 {
	v, _ := rank(sorted(xs), p)
	return v
}
