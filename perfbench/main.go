// Command perfbench is the repository's benchmark. One command runs one of
// four named workloads, checks the workload's outputs, and prints every
// metric by name with its unit:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The benchmark measures from outside: it calls the public functions of
// internal/{exp,server,sim,agent,cluster,serve} and wraps the public
// interfaces server.Policy, agent.Trainable and cluster.Balancer to time
// each layer. Every load comes from this one process, with at most two
// worker goroutines and two loopback connections.
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, and the spans
// are written under -out when the run ends. Human-readable lines before it
// record the machine (CPU model, GOMAXPROCS, Go version, commit, seed), every
// end-to-end metric including the workload-specific ones, and each check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	run  func(b *bench) error
}

var workloads = []workloadDef{
	{"sim-episode", "evaluation episodes of baseline, a fixed controller, ReTail and Gemini on xapian and masstree: time goes to sim, server, control and stats", runSimEpisode},
	{"train", "DDPG training on xapian at the compressed cadence, single-env then lockstep E=4: time goes to nn and rl through agent, sim is a minority", runTrain},
	{"fleet", "12 heterogeneous shards, power-aware routing, a binding power budget, 2 workers: the only per-request routing, global tier and parallel shards", runFleet},
	{"serve", "in-process daemon over 2 loopback connections, closed loop then an open-loop rate ladder: the only HTTP wire, sharded counters and wall-clock bridge", runServe},
}

// endToEnd lists the metrics every workload reports in its --trace 0
// result line, in BENCHMARK.json order. The others are printed above the
// result line: the workload-specific ones (transitions_per_s,
// wire_req_per_s, rtt_ms_*, max_rate_rps), sim_timeout_frac, which is 0 at
// serve's reference rate, and fail_frac, which is failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_req_per_s", "1/s", "higher"},
	{"period_ms_p50", "ms", "lower"},
	{"period_ms_p95", "ms", "lower"},
	{"sim_energy_mj_per_req", "mJ", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the traced run's metrics under their layer's module name.
// A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"sim.events", "count", "higher"},
	{"sim.ns_per_event", "ns", "lower"},
	{"server.self_frac", "fraction", "lower"},
	{"server.begin_ms", "ms", "lower"},
	{"server.end_ms", "ms", "lower"},
	{"server.end_alloc_mb", "MB", "lower"},
	{"control.tick_calls", "count", "higher"},
	{"control.tick_ns", "ns", "lower"},
	{"baselines.dispatch_ns", "ns", "lower"},
	{"agent.decisions", "count", "higher"},
	{"agent.decide_us_p50", "us", "lower"},
	{"agent.decide_us_p99", "us", "lower"},
	{"agent.decide_frac", "fraction", "lower"},
	{"agent.vec_episode_s", "s", "lower"},
	{"cluster.picks", "count", "higher"},
	{"cluster.pick_ns", "ns", "lower"},
	{"cluster.route_frac", "fraction", "lower"},
	{"cluster.shard_tick_ns", "ns", "lower"},
	{"serve.accepted", "count", "higher"},
	{"serve.responded", "count", "higher"},
	{"serve.bad_requests", "count", "lower"},
	{"serve.bridge_lag_ms_p50", "ms", "lower"},
	{"serve.bridge_lag_ms_p99", "ms", "lower"},
	{"serve.segments", "count", "higher"},
	{"serve.backlog_max", "count", "lower"},
	{"serve.client_late_ms_p99", "ms", "lower"},
	{"fault.guard_fallbacks", "count", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

type metricDef struct {
	name, unit, better string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one run's configuration and what it has measured so far.
type bench struct {
	seed    int64
	seconds float64
	traced  bool
	out     io.Writer

	e2e       map[string]metricValue
	layer     map[string]float64
	attempted int64
	failed    int64
	correct   bool
	tr        *tracer
}

// set records an end-to-end metric.
func (b *bench) set(name string, v float64, unit string) {
	b.e2e[name] = metricValue{Value: v, Unit: unit}
}

// check records one output check. A failed check counts as a failed
// operation and fails the run.
func (b *bench) check(name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAIL"
		b.failed++
		b.attempted++
		b.correct = false
	}
	fmt.Fprintf(b.out, "check %-34s %s  %s\n", name, status, fmt.Sprintf(format, args...))
}

// budget returns the share frac of the run's seconds, for phases that run
// on the wall clock.
func (b *bench) budget(frac float64) time.Duration {
	return time.Duration(frac * b.seconds * float64(time.Second))
}

// units sizes a phase of simulated work from the run's seconds: perSecond
// units per second, the rate of a 2-CPU 2.0 GHz Xeon VM, and at least min.
// Every run with the same seconds does the same work, whatever the
// machine's speed, so its allocation and simulated outputs repeat exactly
// and only its timings move with the machine.
func (b *bench) units(perSecond float64, min int) int {
	return max(min, int(perSecond*b.seconds+0.5))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_build/trace", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		out:     stdout,
		e2e:     map[string]metricValue{},
		layer:   map[string]float64{},
		correct: true,
		tr:      newTracer(*trace == 1),
	}
	printMeta(stdout, w, b)
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if b.traced {
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.json", w.name, b.seed))
		if err := b.tr.writeFile(path, w.name, b.seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s (%d spans)\n", path, len(b.tr.spans))
	}

	names := make([]string, 0, len(b.e2e))
	for n := range b.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-24s %14.6g %s\n", n, b.e2e[n].Value, b.e2e[n].Unit)
	}
	line := resultLine{Correct: b.correct, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if line.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	fmt.Fprintf(stdout, "metric %-24s %14.6g fraction\n", "fail_frac", float64(b.failed)/float64(b.attempted))
	if b.traced {
		for _, d := range perLayer {
			v := b.layer[d.name]
			fmt.Fprintf(stdout, "layer  %-24s %14.6g %s\n", d.name, v, d.unit)
			line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			m, ok := b.e2e[d.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", w.name, d.name)
				return 1
			}
			line.Metrics[d.name] = m
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !b.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
