package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// The sim-episode workload evaluates the Fig. 7 methods that need no DRL
// training over one diurnal period each. Xapian (ms-scale, the paper's 20
// workers) gets a 30 s period; masstree (µs-scale, 8 workers, about six
// times xapian's request rate) a 2.5 s one, so one cycle spends roughly a
// third of its host time on masstree. Episodes run in 100 ms segments,
// 1300 a cycle, each short enough that its fastest repeat misses the
// machine's slow stretches, where a one-second masstree period at peak
// load runs for about 80 ms and averages over them.
var episodeApps = []struct {
	name   string
	period sim.Time
}{
	{app.Xapian, 30 * sim.Second},
	{app.Masstree, 2500 * sim.Millisecond},
}

// episodeSegment is the simulated time one RunSegment call advances.
const episodeSegment = 100 * sim.Millisecond

// controllerMethod is a fixed-parameter thread controller (Algorithm 1
// without the agent). b=0.9, s=1 keeps xapian's peak serviceable while
// still scaling frequency down in the trough.
const controllerMethod = "controller:0.9,1"

var episodeMethods = []string{exp.MethodBaseline, controllerMethod, exp.MethodRetail, exp.MethodGemini}

// episodeUnit is one (app, method) evaluation episode.
type episodeUnit struct {
	app    string
	method string
	setup  *exp.Setup
	pol    server.Policy
}

// traceSeed fixes the diurnal trace's shape. Its bursts and noise set
// where the trace's peak falls, and the trace is scaled to that peak, so a
// trace drawn per seed would change each run's mean load by several per
// cent. The shape is part of the workload's definition; --seed drives every
// other random draw: arrivals, service times, profiling samples, predictor
// and agent training.
const traceSeed = 1

// newSetup builds an application setup over the fixed trace, seeded for
// everything else.
func newSetup(appName string, scale exp.Scale, seed int64) (*exp.Setup, error) {
	scale.Seed = traceSeed
	setup, err := exp.NewSetup(appName, scale)
	if err != nil {
		return nil, err
	}
	setup.Scale.Seed = seed
	return setup, nil
}

func buildEpisodeUnits(seed int64) ([]episodeUnit, error) {
	var units []episodeUnit
	for _, a := range episodeApps {
		setup, err := newSetup(a.name, exp.Scale{
			EvalDuration: a.period,
			TracePeriod:  a.period,
			Samples:      4000,
		}, seed)
		if err != nil {
			return nil, err
		}
		for _, m := range episodeMethods {
			var pol server.Policy
			if m == controllerMethod {
				pol = control.NewThreadController(control.Params{BaseFreq: 0.9, ScalingCoef: 1})
			} else if pol, err = setup.BuildPolicy(m); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", a.name, m, err)
			}
			units = append(units, episodeUnit{app: a.name, method: m, setup: setup, pol: pol})
		}
	}
	return units, nil
}

// episodeOut is what one segment-driven episode produced.
type episodeOut struct {
	res      *server.Result
	inFlight uint64    // queued + in service just before End
	periods  []float64 // host ms per segment
	beginMS  float64   // host ms of server.New and Begin
	endMS    float64   // host ms of End
}

// runEpisode drives one evaluation episode segment by segment: Begin, one
// RunSegment per episodeSegment, End — the same events Setup.Evaluate
// runs in one call. With a probe the policy is wrapped and timed.
func (b *bench) runEpisode(eng *sim.Engine, u *episodeUnit, p *probe, unit int32) (episodeOut, error) {
	var out episodeOut
	pol := u.pol
	if p != nil {
		arr := kCallback
		if u.method == exp.MethodRetail || u.method == exp.MethodGemini {
			arr = kBaseline
		}
		pol = newTimedPolicy(pol, p, kTick, arr)
	}
	tr := b.tr
	if p == nil {
		tr = newTracer(false)
	}
	eng.Reset()
	ep := tr.begin("episode", unit)
	tr.attr(ep, "unit", u.app+"/"+u.method)
	id := tr.begin("begin", unit)
	t0 := time.Now()
	srv, err := server.New(eng, u.setup.ServerConfig(u.setup.Scale.Seed+104729), pol)
	if err != nil {
		return out, err
	}
	if err := srv.Begin(u.setup.Trace, u.setup.Scale.EvalDuration); err != nil {
		return out, err
	}
	out.beginMS = float64(time.Since(t0)) / 1e6
	tr.end(id)
	for t := episodeSegment; ; t += episodeSegment {
		id := tr.begin("segment", unit)
		e0 := eng.Fired()
		t0 := time.Now()
		done := srv.RunSegment(t)
		out.periods = append(out.periods, float64(time.Since(t0))/1e6)
		if p != nil {
			tr.attr(id, "events", eng.Fired()-e0)
			tr.end(id, p)
		}
		if done {
			break
		}
	}
	out.inFlight = uint64(srv.QueueLen() + srv.BusyCores())
	t0 = time.Now()
	out.res = endTraced(tr, srv, unit)
	out.endMS = float64(time.Since(t0)) / 1e6
	tr.end(ep)
	return out, nil
}

// endTraced calls srv.End inside an "end" span recording what End
// allocates.
func endTraced(tr *tracer, srv *server.Server, unit int32) *server.Result {
	id := tr.begin("end", unit)
	var rt runtimeSample
	if tr.on {
		rt = readRuntime()
	}
	res := srv.End()
	if tr.on {
		tr.attr(id, "alloc_bytes", readRuntime().allocBytes-rt.allocBytes)
	}
	tr.end(id)
	return res
}

// fingerprint digests every simulated output of a run, the raw latency
// samples included, so two runs compare byte for byte.
func fingerprint(r *server.Result) string {
	c := *r
	lat := c.Latencies
	c.Latencies = nil
	h := sha256.New()
	fmt.Fprintf(h, "%+v", c)
	var buf [8]byte
	for _, v := range lat {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runSimEpisode(b *bench) error {
	var units []episodeUnit
	st := newSetupTimer(3, 1, func() (func(), error) {
		u, err := buildEpisodeUnits(b.seed)
		if units == nil {
			units = u
		}
		return nil, err
	})
	if err := st.slot(nil); err != nil {
		return err
	}

	eng := sim.NewEngine()
	first := make([]string, len(units))
	var (
		periods, work          repeats // untraced cycles: segment host times, and all of an episode's
		arrivals, completions  uint64
		timeouts               uint64
		energyJ                float64
		tracedS, untracedS     float64
		cycles, tracedCycles   int
		mismatches, unbalanced int
	)
	// A cycle runs in about 1.7 s; eight cycles give every segment eight
	// repeats. A traced run alternates untraced and traced cycles.
	n := b.units(0.4, 8)
	if b.traced {
		n += n % 2
	}
	ph := startPhase()
	for cycles < n {
		// Traced runs alternate untraced and traced cycles of the same
		// episodes, so the tracing overhead is measured on equal work.
		traced := b.traced && cycles%2 == 1
		c0 := time.Now()
		var cyclePeriods, cycleWork []float64
		for i := range units {
			var p *probe
			if traced {
				p = &probe{}
			}
			out, err := b.runEpisode(eng, &units[i], p, int32(cycles*len(units)+i))
			if err != nil {
				return err
			}
			cycleWork = append(append(append(cycleWork, out.beginMS), out.periods...), out.endMS)
			b.attempted++
			r := out.res
			if r.Counters.Arrivals != r.Counters.Completions+out.inFlight {
				unbalanced++
			}
			fp := fingerprint(r)
			if cycles == 0 {
				first[i] = fp
			} else if fp != first[i] {
				mismatches++
			}
			cyclePeriods = append(cyclePeriods, out.periods...)
			arrivals += r.Counters.Arrivals
			completions += r.Counters.Completions
			timeouts += r.Counters.Timeouts
			energyJ += r.EnergyJ
		}
		cycles++
		if traced {
			tracedCycles++
			tracedS += time.Since(c0).Seconds()
		} else {
			untracedS += time.Since(c0).Seconds()
			periods.add(cyclePeriods)
			work.add(cycleWork)
		}
		if err := st.slot(&ph); err != nil {
			return err
		}
	}
	cost := ph.stop()
	if err := st.record(b); err != nil {
		return err
	}

	b.check("request conservation", unbalanced == 0,
		"arrivals = completions + in flight in %d of %d episodes", b.attempted-int64(unbalanced), b.attempted)
	b.check("repeat identity", mismatches == 0,
		"%d episodes repeated over %d cycles, %d differ from their first run", (cycles-1)*len(units), cycles, mismatches)
	if err := b.checkEpisodeWrappers(eng, units, first); err != nil {
		return err
	}

	// Every cycle runs the same episodes: a cycle's work with each begin,
	// segment and end at its fastest repeat.
	b.set("sim_req_per_s", float64(completions)/float64(cycles)/(work.bestTotal()/1e3), "1/s")
	b.timing("period_ms", "ms", &periods)
	b.set("sim_timeout_frac", float64(timeouts)/float64(arrivals), "fraction")
	b.set("sim_energy_mj_per_req", energyJ*1e3/float64(completions), "mJ")
	if err := b.finishCommon(cost, cycles); err != nil {
		return err
	}
	if b.traced {
		b.layer["trace.overhead_frac"] = tracedS/untracedS - 1
		b.serverLayers()
	}
	return nil
}

// checkEpisodeWrappers compares wrapped against unwrapped episodes and the
// segment-driven loop against Setup.Evaluate. Traced runs already compared
// wrapped cycles with unwrapped ones in the repeat-identity check, so an
// untraced run wraps the masstree episodes (every method, the cheaper app)
// here.
func (b *bench) checkEpisodeWrappers(eng *sim.Engine, units []episodeUnit, first []string) error {
	if !b.traced {
		diff, n := 0, 0
		for i := range units {
			if units[i].app != app.Masstree {
				continue
			}
			out, err := b.runEpisode(eng, &units[i], &probe{}, -1)
			if err != nil {
				return err
			}
			n++
			if fingerprint(out.res) != first[i] {
				diff++
			}
		}
		b.check("wrapped policy identity", diff == 0, "%d wrapped episodes, %d differ from unwrapped", n, diff)
	}
	// Masstree's baseline episode is the cheapest to re-run in one call.
	for i := range units {
		if u := &units[i]; u.app == app.Masstree && u.method == exp.MethodBaseline {
			res, err := u.setup.EvaluateOn(eng, u.pol)
			if err != nil {
				return err
			}
			b.check("segmented run = Setup.Evaluate", fingerprint(res) == first[i], "%s/%s", u.app, u.method)
		}
	}
	return nil
}

// serverLayers derives the sim, server, control and baselines layers from
// the traced segment, begin and end spans of single-server episodes. The
// server's self time is a segment's duration minus the policy callbacks in
// it; the engine's share of it is charged per event.
func (b *bench) serverLayers() {
	var segNS, cbNS int64
	var events float64
	var calls, busy [nKinds]int64
	for _, s := range b.tr.named("segment") {
		segNS += s.dur()
		if e, ok := s.Attrs["events"].(uint64); ok {
			events += float64(e)
		}
		for k := 0; k < nKinds; k++ {
			calls[k] += s.Calls[k]
			busy[k] += s.Busy[k]
			cbNS += s.Busy[k]
		}
	}
	var beginNS, endNS int64
	var endAlloc float64
	begins, ends := b.tr.named("begin"), b.tr.named("end")
	for _, s := range begins {
		beginNS += s.dur()
	}
	for _, s := range ends {
		endNS += s.dur()
		if a, ok := s.Attrs["alloc_bytes"].(float64); ok {
			endAlloc += a
		}
	}
	b.layer["sim.events"] = events
	b.layer["sim.ns_per_event"] = float64(segNS-cbNS) / events
	b.layer["server.self_frac"] = float64(segNS-cbNS) / float64(segNS)
	b.layer["server.begin_ms"] = float64(beginNS) / 1e6 / float64(len(begins))
	b.layer["server.end_ms"] = float64(endNS) / 1e6 / float64(len(ends))
	b.layer["server.end_alloc_mb"] = endAlloc / (1 << 20) / float64(len(ends))
	b.layer["control.tick_calls"] = float64(calls[kTick])
	b.layer["control.tick_ns"] = perCall(busy[kTick], calls[kTick])
	b.layer["baselines.dispatch_ns"] = perCall(busy[kBaseline], calls[kBaseline])
}

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}
