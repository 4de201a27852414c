package main

import (
	"context"
	"fmt"
	"time"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cluster"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/power"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// The fleet workload runs one 30 s campaign after another over 12
// heterogeneous xapian shards (4 fast cores each, plus efficiency cores on
// the newer generations), routed by the power-aware balancer under a global
// tier with a binding power budget, on 2 workers.
const (
	fleetShards   = 12
	fleetWorkers  = 2
	fleetDuration = 30 * sim.Second
	fleetEpoch    = 100 * sim.Millisecond
	// fleetBudgetFrac of the fleet's all-turbo draw is tight enough that
	// the global tier's frequency ceilings engage.
	fleetBudgetFrac = 0.8
)

// fleetGen is one machine generation: power-model multipliers and the
// efficiency-core complement as a fraction of the fast cores.
type fleetGen struct{ dyn, leak, uncore, efficient float64 }

var fleetGens = []fleetGen{
	{0.80, 0.80, 0.90, 1.0},
	{1.00, 1.00, 1.00, 0.5},
	{1.30, 1.25, 1.10, 0},
}

type fleetSetup struct {
	setup  *exp.Setup
	trace  *workload.Trace
	budget float64
}

func newFleetSetup(seed int64) (*fleetSetup, error) {
	setup, err := newSetup(app.Xapian, exp.Scale{
		Workers:      4,
		EvalDuration: fleetDuration,
		TracePeriod:  fleetDuration,
		Samples:      4000,
	}, seed)
	if err != nil {
		return nil, err
	}
	// A 20 ms fleet SLO, as in the fleet experiment, leaves the peak
	// servable so timeouts measure balancing rather than saturation.
	setup.Prof.SLA = 20 * sim.Millisecond
	fs := &fleetSetup{setup: setup, trace: setup.Trace.Scale(fleetShards)}
	for i := 0; i < fleetShards; i++ {
		m, topo := fleetMachine(i, setup.Prof.Workers)
		fs.budget += m.Uncore
		if topo != nil {
			for _, c := range topo.Classes {
				fs.budget += float64(c.Count) * m.CorePowerScaled(c.Ladder.Max, true, c.DynFactor(), c.LeakFactor())
			}
		} else {
			fs.budget += float64(setup.Prof.Workers) * m.CorePower(cpu.DefaultLadder().Max, true)
		}
	}
	fs.budget *= fleetBudgetFrac
	return fs, nil
}

// fleetMachine returns shard i's generation-scaled power model and core
// topology (nil for the homogeneous oldest generation).
func fleetMachine(i, workers int) (power.Model, *cpu.Topology) {
	g := fleetGens[i%len(fleetGens)]
	m := power.DefaultModel()
	m.DynCoef *= g.dyn
	m.LeakPerCore *= g.leak
	m.Uncore *= g.uncore
	eff := int(g.efficient*float64(workers) + 0.5)
	if eff == 0 {
		return m, nil
	}
	t := cpu.DefaultHetero(workers, eff)
	return m, &t
}

// fleetRun is one campaign's outcome.
type fleetRun struct {
	res    *cluster.Result
	bal    *timedBalancer
	shards []*timedPolicy // nil unless the shard policies were wrapped
}

// campaign runs one fleet campaign. wrapBalancer and wrapShards choose
// which public interfaces are wrapped; traced campaigns, which wrap both,
// record one span per epoch carrying the shards' tick counts and the
// balancer's picks.
func (b *bench) campaign(fs *fleetSetup, wrapBalancer, wrapShards, traced bool, unit int32) (*fleetRun, error) {
	run := &fleetRun{}
	cfgs := make([]cluster.ShardConfig, fleetShards)
	var probes []*probe
	for i := range cfgs {
		sc := fs.setup.ServerConfig(sim.SubSeed(b.seed, fmt.Sprintf("fleet/shard/%d", i)))
		sc.Power, sc.Topology = fleetMachine(i, fs.setup.Prof.Workers)
		sc.Warmup = fleetDuration / 10
		sc.DiscardLatencies = true
		var pol server.Policy = control.NewThreadController(control.Params{BaseFreq: 0.9, ScalingCoef: 1})
		if wrapShards {
			p := &probe{}
			tp := newTimedPolicy(pol, p, kShardTick, kCallback)
			run.shards = append(run.shards, tp)
			probes = append(probes, p)
			pol = tp
		}
		cfgs[i] = cluster.ShardConfig{Server: sc, Policy: pol}
	}
	inner, err := cluster.NewBalancer(cluster.PowerAwareName)
	if err != nil {
		return nil, err
	}
	bal := inner
	if wrapBalancer {
		run.bal = &timedBalancer{inner: inner, traced: traced}
		bal = run.bal
		probes = append(probes, &run.bal.p)
	}
	tr := b.tr
	if !traced {
		tr = newTracer(false)
	}
	id := tr.begin("campaign", unit)
	if traced && run.bal != nil {
		run.bal.onEpoch = func(start, routed, end time.Time) {
			eid := tr.beginAt("epoch", unit, int64(start.Sub(tr.epoch)))
			tr.attr(eid, "route_ns", routed.Sub(start).Nanoseconds())
			tr.endAt(eid, int64(end.Sub(tr.epoch)), probes...)
		}
	}
	run.res, err = cluster.Run(context.Background(), cluster.Config{
		Trace:       fs.trace,
		Duration:    fleetDuration,
		Epoch:       fleetEpoch,
		Seed:        sim.SubSeed(b.seed, "fleet/arrivals"),
		Balancer:    bal,
		Global:      &cluster.GlobalConfig{Every: 10, PowerBudgetW: fs.budget},
		SeriesEvery: 10,
	}, cfgs, fleetWorkers)
	// The last epoch's counts stay on the campaign span.
	tr.end(id, probes...)
	return run, err
}

// fleetFingerprint digests a campaign's simulated outputs.
func fleetFingerprint(r *cluster.Result) string {
	c := *r
	c.PerShard, c.Series = nil, nil
	s := fmt.Sprintf("%+v %+v", c, r.Series)
	for _, sr := range r.PerShard {
		s += fingerprint(sr)
	}
	return s
}

func runFleet(b *bench) error {
	var fs *fleetSetup
	st := newSetupTimer(3, 4, func() (func(), error) {
		s, err := newFleetSetup(b.seed)
		if fs == nil {
			fs = s
		}
		return nil, err
	})
	if err := st.slot(nil); err != nil {
		return err
	}

	var (
		first                          string
		periods, work                  repeats // untraced campaigns: epoch host times, and all of a campaign's
		arrivals, completions, timeout uint64
		energyJ, tracedS, untracedS    float64
		campaigns, tracedCampaigns     int
		mismatches, unrouted           int
		capped                         uint64
	)
	// A campaign takes about 1 s.
	n := b.units(1, 4)
	if b.traced {
		n += n % 2
	}
	ph := startPhase()
	for campaigns < n {
		traced := b.traced && campaigns%2 == 1
		c0 := time.Now()
		run, err := b.campaign(fs, true, traced, traced, int32(campaigns))
		if err != nil {
			return err
		}
		d := time.Since(c0).Seconds()
		b.attempted++
		r := run.res
		if fp := fleetFingerprint(r); campaigns == 0 {
			first = fp
		} else if fp != first {
			mismatches++
		}
		var routed uint64
		for _, n := range r.Routed {
			routed += n
		}
		if routed != r.TotalRouted || r.TotalRouted != r.Arrivals || uint64(run.bal.picks) != r.TotalRouted {
			unrouted++
		}
		if traced {
			tracedS += d
			tracedCampaigns++
		} else {
			untracedS += d
			epochs := run.bal.epochMS()
			rest := d * 1e3
			for _, v := range epochs {
				rest -= v
			}
			periods.add(epochs)
			work.add(append(epochs, rest))
		}
		arrivals += r.Arrivals
		completions += r.Completions
		timeout += r.Timeouts
		energyJ += r.EnergyJ
		capped += r.CappedWrites
		campaigns++
		if err := st.slot(&ph); err != nil {
			return err
		}
	}
	cost := ph.stop()
	if err := st.record(b); err != nil {
		return err
	}

	b.check("routed = arrivals", unrouted == 0, "picks = routed = arrivals in %d of %d campaigns", campaigns-unrouted, campaigns)
	b.check("repeat identity", mismatches == 0, "%d campaigns, %d differ from the first", campaigns, mismatches)
	b.check("power budget binds", capped > 0, "%d governor writes capped", capped)
	if err := b.checkFleetWrappers(fs, first); err != nil {
		return err
	}

	// Campaigns repeat identical work: one campaign's with each epoch, and
	// the rest of cluster.Run, at its fastest repeat.
	b.set("sim_req_per_s", float64(completions)/float64(campaigns)/(work.bestTotal()/1e3), "1/s")
	b.timing("period_ms", "ms", &periods)
	b.set("sim_timeout_frac", float64(timeout)/float64(arrivals), "fraction")
	b.set("sim_energy_mj_per_req", energyJ*1e3/float64(completions), "mJ")
	if err := b.finishCommon(cost, campaigns); err != nil {
		return err
	}
	if b.traced {
		b.layer["trace.overhead_frac"] = (tracedS/float64(tracedCampaigns))/(untracedS/float64(campaigns-tracedCampaigns)) - 1
		b.fleetLayers()
	}
	return nil
}

// checkFleetWrappers runs a campaign with nothing wrapped, and one with
// the balancer and every shard policy wrapped, against the timed ones; the
// wrapped shard policies also count arrivals and completions for the
// conservation check.
func (b *bench) checkFleetWrappers(fs *fleetSetup, first string) error {
	bare, err := b.campaign(fs, false, false, false, -1)
	if err != nil {
		return err
	}
	b.check("unwrapped campaign identity", fleetFingerprint(bare.res) == first, "balancer and policies unwrapped")
	wrapped, err := b.campaign(fs, true, true, false, -1)
	if err != nil {
		return err
	}
	b.check("wrapped campaign identity", fleetFingerprint(wrapped.res) == first, "balancer and %d shard policies wrapped", len(wrapped.shards))
	var arr, comp uint64
	for _, tp := range wrapped.shards {
		arr += tp.arrivals
		comp += tp.completions
	}
	r := wrapped.res
	b.check("request conservation", arr == r.Arrivals && comp == r.Completions && r.Arrivals == r.Completions+r.InFlight,
		"policies saw %d arrivals, %d completions; fleet counted %d, %d, %d in flight", arr, comp, r.Arrivals, r.Completions, r.InFlight)
	return nil
}

// fleetLayers derives the cluster and control layers from the epoch spans.
func (b *bench) fleetLayers() {
	var epochNS, routeNS int64
	var calls, busy [nKinds]int64
	for _, s := range b.tr.named("epoch") {
		epochNS += s.dur()
		routeNS += s.Attrs["route_ns"].(int64)
		for k := 0; k < nKinds; k++ {
			calls[k] += s.Calls[k]
			busy[k] += s.Busy[k]
		}
	}
	b.layer["cluster.picks"] = float64(calls[kPick])
	b.layer["cluster.pick_ns"] = perCall(busy[kPick], calls[kPick])
	b.layer["cluster.route_frac"] = float64(routeNS) / float64(epochNS)
	b.layer["cluster.shard_tick_ns"] = perCall(busy[kShardTick], calls[kShardTick])
	b.layer["control.tick_calls"] = float64(calls[kShardTick])
	b.layer["control.tick_ns"] = perCall(busy[kShardTick], calls[kShardTick])
}
