package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// The train workload runs DDPG on xapian at the quick scale (4 workers,
// 20 s diurnal period) and the compressed cadence internal/exp uses for it:
// one agent step per 250 ms LongTime with 8 gradient updates. Single-env
// episodes fill most of the run; a lockstep phase at E=4 on 2 workers
// follows.
const (
	trainLongTime = 250 * sim.Millisecond
	trainPeriod   = 20 * sim.Second
	trainCheckEps = 2 // episodes compared against agent.Train
	agentEpisodes = 4 // single-env episodes per training, as at exp's quick scale
	vecEnvs       = 4
	vecWorkers    = 2
	vecEpisodes   = 2
	vecRepeats    = 3
	// Single-env episodes per second of the run: about 0.35 s each, so the
	// single-env phase fills about 75% of it. Rounded up to whole trainings.
	singleEnvRate = 2.2
)

// agentSeed fixes the agent's initial weights and exploration noise, which
// are part of the trained program, not of its inputs: trained from
// different seeds, early exploration overloads the server in some runs and
// not others, and the run's allocation differs by half. --seed drives the
// servers the agent trains on.
const agentSeed = 1

// agentConfig mirrors internal/exp's compressed-cadence DeepPower config.
func agentConfig(seed int64) agent.Config {
	return agent.Config{
		Seed:           seed,
		Train:          true,
		LongTime:       trainLongTime,
		UpdatesPerStep: 8,
		WarmupSteps:    30,
		NoiseMu:        0.2,
		NoiseSigma:     0.5,
		NoiseDecay:     0.99,
	}
}

type trainSetup struct {
	setup  *exp.Setup
	server server.Config
	dp     *agent.DeepPower
}

func newTrainSetup(seed int64) (*trainSetup, error) {
	setup, err := newSetup(app.Xapian, exp.Scale{
		Workers:      4,
		EvalDuration: trainPeriod,
		TracePeriod:  trainPeriod,
		Samples:      4000,
	}, seed)
	if err != nil {
		return nil, err
	}
	sc := setup.ServerConfig(seed)
	sc.Warmup = 0
	dp, err := agent.New(agentConfig(agentSeed))
	if err != nil {
		return nil, err
	}
	return &trainSetup{setup: setup, server: sc, dp: dp}, nil
}

// repTimes collects one training's host times in ms: every segment's, and
// all of its work, each episode's begin and end included.
type repTimes struct{ periods, work []float64 }

// trainEpisode runs episode ep of agent.Train's loop one LongTime segment
// at a time: the same seeds, the same server, the same policy calls.
func (b *bench) trainEpisode(eng *sim.Engine, ts *trainSetup, pol server.Policy, ep int, p *probe, tm *repTimes) (agent.EpisodeStats, *server.Result, error) {
	tr := b.tr
	if p == nil {
		tr = newTracer(false)
	}
	sc := ts.server
	sc.Seed = ts.server.Seed + int64(ep)*7919
	sc.DiscardLatencies = false
	eng.Reset()
	id := tr.begin("episode", int32(ep))
	bid := tr.begin("begin", int32(ep))
	t0 := time.Now()
	srv, err := server.New(eng, sc, pol)
	if err != nil {
		return agent.EpisodeStats{}, nil, err
	}
	if err := srv.Begin(ts.setup.Trace, ts.setup.Trace.Period); err != nil {
		return agent.EpisodeStats{}, nil, err
	}
	tm.work = append(tm.work, float64(time.Since(t0))/1e6)
	tr.end(bid)
	for t := trainLongTime; ; t += trainLongTime {
		sid := tr.begin("segment", int32(ep))
		e0 := eng.Fired()
		t0 := time.Now()
		done := srv.RunSegment(t)
		ms := float64(time.Since(t0)) / 1e6
		tm.periods = append(tm.periods, ms)
		tm.work = append(tm.work, ms)
		tr.attr(sid, "events", eng.Fired()-e0)
		tr.end(sid, p)
		if done {
			break
		}
	}
	t0 = time.Now()
	res := endTraced(tr, srv, int32(ep))
	tm.work = append(tm.work, float64(time.Since(t0))/1e6)
	tr.end(id)
	st := agent.EpisodeStats{
		Episode:     ep,
		Return:      ts.dp.Return(),
		AvgPowerW:   res.AvgPowerW,
		TimeoutRate: res.TimeoutRate,
		P99Seconds:  res.Latency.P99,
		CriticLoss:  ts.dp.LastCriticLoss(),
		Divergences: ts.dp.DivergenceCount(),
	}
	return st, res, nil
}

func runTrain(b *bench) error {
	st := newSetupTimer(3, 10, func() (func(), error) {
		_, err := newTrainSetup(b.seed)
		return nil, err
	})
	if err := st.slot(nil); err != nil {
		return err
	}

	eng := sim.NewEngine()
	var (
		periods, work         repeats // untraced repeats: segment host times, and all of a training's
		arrivals, completions uint64
		timeouts, transitions uint64
		energyJ               float64
		tracedS, untracedS    float64
		stats                 []agent.EpisodeStats
		first                 []string // repeat 0's episode fingerprints and saved actors
		mismatches            int
	)
	// The single-env phase trains a fresh agent for agentEpisodes, then
	// repeats that identical training, so that every segment is timed at
	// its fastest. A traced run alternates untraced and traced repeats.
	reps := (b.units(singleEnvRate, 13) + agentEpisodes - 1) / agentEpisodes
	if b.traced {
		reps += reps % 2
	}
	p := &probe{}
	runtime.GC()
	ph := startPhase()
	for r := 0; r < reps; r++ {
		traced := b.traced && r%2 == 1
		ts, err := newTrainSetup(b.seed)
		if err != nil {
			return err
		}
		ts.dp.SetTrain(true)
		var pol server.Policy = ts.dp
		var pp *probe
		if traced {
			pol, pp = newTimedAgent(ts.dp, p, b.tr), p
		}
		var tm repTimes
		var fps []string
		r0 := time.Now()
		for ep := 0; ep < agentEpisodes; ep++ {
			if a, ok := pol.(*timedAgent); ok {
				a.unit = int32(r*agentEpisodes + ep)
			}
			st, res, err := b.trainEpisode(eng, ts, pol, ep, pp, &tm)
			if err != nil {
				return err
			}
			b.attempted++
			fps = append(fps, fingerprint(res))
			if r == 0 {
				stats = append(stats, st)
				c := res.Counters
				arrivals += c.Arrivals
				completions += c.Completions
				timeouts += c.Timeouts
				energyJ += res.EnergyJ
			}
			if ep+1 == trainCheckEps {
				var buf bytes.Buffer
				if err := ts.dp.SavePolicy(&buf); err != nil {
					return err
				}
				fps = append(fps, string(buf.Bytes()))
			}
		}
		ts.dp.SetTrain(false)
		transitions += ts.dp.Experience()
		var buf bytes.Buffer
		if err := ts.dp.SavePolicy(&buf); err != nil {
			return err
		}
		fps = append(fps, string(buf.Bytes()))
		if r == 0 {
			first = fps
		} else if fmt.Sprint(fps) != fmt.Sprint(first) {
			mismatches++
		}
		if traced {
			tracedS += time.Since(r0).Seconds()
		} else {
			untracedS += time.Since(r0).Seconds()
			periods.add(tm.periods)
			work.add(tm.work)
		}
		if err := st.slot(&ph); err != nil {
			return err
		}
	}
	single := ph.stop()
	if err := st.record(b); err != nil {
		return err
	}
	b.check("repeat identity", mismatches == 0, "%d trainings of %d episodes, %d differ from the first", reps, agentEpisodes, mismatches)

	// Lockstep phase: a fresh agent shared by E environments, trained
	// vecRepeats times over. The process's memory peaks here, at a height
	// that depends on where the collector's cycles fall among the
	// environments' allocations; the repeats give the peak several chances.
	var (
		vec       phaseCost
		vecEp     []float64
		vecTrans  uint64
		vecFirst  string
		vecDiffer int
		vecShort  int
	)
	for r := 0; r < vecRepeats; r++ {
		c, eps, trans, fp, err := b.lockstep(r)
		if err != nil {
			return err
		}
		vec.secs += c.secs
		vec.gcCycles += c.gcCycles
		vec.gcCPUFrac += c.gcCPUFrac * c.secs
		vecEp = append(vecEp, eps...)
		vecTrans += trans
		b.attempted += int64(len(eps))
		if len(eps) != vecEpisodes {
			vecShort++
		}
		if r == 0 {
			vecFirst = fp
		} else if fp != vecFirst {
			vecDiffer++
		}
	}
	vec.gcCPUFrac /= vec.secs

	if err := b.checkTrain(stats, []byte(first[trainCheckEps])); err != nil {
		return err
	}
	b.check("lockstep episodes", vecShort == 0, "%d of %d trainings ran %d episodes", vecRepeats-vecShort, vecRepeats, vecEpisodes)
	b.check("lockstep repeat identity", vecDiffer == 0, "%d trainings, %d differ from the first", vecRepeats, vecDiffer)

	// One training's work with each begin, segment and end at its fastest
	// repeat.
	b.set("sim_req_per_s", float64(completions)/(work.bestTotal()/1e3), "1/s")
	b.timing("period_ms", "ms", &periods)
	b.set("transitions_per_s", float64(transitions+vecTrans)/(single.secs+vec.secs), "1/s")
	b.set("sim_timeout_frac", float64(timeouts)/float64(arrivals), "fraction")
	b.set("sim_energy_mj_per_req", energyJ*1e3/float64(completions), "mJ")
	// Allocation is per single-env episode; GC figures cover both phases.
	single.gcCycles += vec.gcCycles
	single.gcCPUFrac = (single.gcCPUFrac*single.secs + vec.gcCPUFrac*vec.secs) / (single.secs + vec.secs)
	if err := b.finishCommon(single, reps*agentEpisodes); err != nil {
		return err
	}
	if b.traced {
		b.layer["trace.overhead_frac"] = tracedS/untracedS - 1
		b.agentLayers(median(vecEp))
	}
	return nil
}

// lockstep trains a fresh agent on vecEnvs environments for vecEpisodes
// and returns the phase's cost, each episode's host seconds, the
// transitions collected, and a digest of the episode statistics and the
// saved actor.
func (b *bench) lockstep(rep int) (phaseCost, []float64, uint64, string, error) {
	vs, err := newTrainSetup(b.seed)
	if err != nil {
		return phaseCost{}, nil, 0, "", err
	}
	var eps []float64
	last := time.Now()
	vt, err := agent.NewVectorTrainer(vs.dp, agent.TrainVectorConfig{
		Envs:       vecEnvs,
		Workers:    vecWorkers,
		Episodes:   vecEpisodes,
		EpisodeLen: vs.setup.Trace.Period,
		Server:     vs.server,
		Trace:      vs.setup.Trace,
		OnEpisode: func(ep int, _ agent.EpisodeStats) error {
			now := time.Now()
			eps = append(eps, now.Sub(last).Seconds())
			if b.tr.on {
				unit := int32(rep*vecEpisodes + ep)
				b.tr.endAt(b.tr.beginAt("vec_episode", unit, int64(last.Sub(b.tr.epoch))), int64(now.Sub(b.tr.epoch)))
			}
			last = now
			return nil
		},
	})
	if err != nil {
		return phaseCost{}, nil, 0, "", err
	}
	runtime.GC()
	ph := startPhase()
	last = time.Now()
	stats, err := vt.Train(context.Background())
	if err != nil {
		return phaseCost{}, nil, 0, "", err
	}
	c := ph.stop()
	var buf bytes.Buffer
	if err := vs.dp.SavePolicy(&buf); err != nil {
		return phaseCost{}, nil, 0, "", err
	}
	return c, eps, vt.Experience(), fmt.Sprint(stats) + buf.String(), nil
}

// checkTrain re-runs the first trainCheckEps episodes through agent.Train
// on a fresh agent, wrapped when the timed loop was not, and compares the
// saved actor and every episode's statistics with the benchmark's loop.
func (b *bench) checkTrain(stats []agent.EpisodeStats, actor []byte) error {
	ref, err := newTrainSetup(b.seed)
	if err != nil {
		return err
	}
	var pol agent.Trainable = ref.dp
	if !b.traced {
		pol = newTimedAgent(ref.dp, &probe{}, newTracer(false))
	}
	want, err := agent.Train(pol, agent.TrainConfig{
		Episodes:   trainCheckEps,
		EpisodeLen: ref.setup.Trace.Period,
		Server:     ref.server,
		Trace:      ref.setup.Trace,
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ref.dp.SavePolicy(&buf); err != nil {
		return err
	}
	same := len(want) == trainCheckEps
	for i := 0; same && i < trainCheckEps; i++ {
		same = fmt.Sprint(want[i]) == fmt.Sprint(stats[i])
	}
	b.check("segment loop = agent.Train", same && bytes.Equal(buf.Bytes(), actor),
		"%d episodes: actor %d bytes equal=%v, episode stats equal=%v", trainCheckEps, len(actor), bytes.Equal(buf.Bytes(), actor), same)
	return nil
}

// agentLayers derives the agent layer from the traced episodes' decision
// and segment spans, then the layers below it.
func (b *bench) agentLayers(vecEpisodeS float64) {
	var decide []float64
	for _, s := range b.tr.named("decision") {
		decide = append(decide, float64(s.dur())/1e3)
	}
	var segNS, decNS int64
	for _, s := range b.tr.named("segment") {
		segNS += s.dur()
		decNS += s.Busy[kDecide]
	}
	d := sorted(decide)
	b.layer["agent.decisions"] = float64(len(d))
	b.layer["agent.decide_us_p50"] = median(d)
	if v, err := tail(d, 0.99); err == nil {
		b.layer["agent.decide_us_p99"] = v
	}
	b.layer["agent.decide_frac"] = float64(decNS) / float64(segNS)
	b.layer["agent.vec_episode_s"] = vecEpisodeS
	b.serverLayers()
}
