package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/server"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     float64
		want  float64
		fails bool
	}{
		{1000, 0.99, 990, false}, // exactly ten above rank 990
		{999, 0.99, 0, true},     // rank 990 leaves nine
		{100, 0.9, 90, false},
		{99, 0.9, 0, true},
		{20, 0.5, 10, false},
		{19, 0.5, 0, true},
		{5000, 0.999, 4995, true}, // five beyond
	} {
		got, err := tail(seq(tc.n), tc.p)
		if (err != nil) != tc.fails {
			t.Errorf("tail(n=%d, p=%g) err = %v, want failure %v", tc.n, tc.p, err, tc.fails)
		}
		if !tc.fails && got != tc.want {
			t.Errorf("tail(n=%d, p=%g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestRankIsNearestRank(t *testing.T) {
	xs := seq(10)
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.5, 5, 5}, {0.55, 6, 4}, {0.99, 10, 0}, {0.01, 1, 9}, {1, 10, 0}} {
		v, beyond := rank(xs, tc.p)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("rank(p=%g) = %g, %d beyond; want %g, %d", tc.p, v, beyond, tc.want, tc.beyond)
		}
	}
	if v, _ := rank(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("rank of no samples = %g, want NaN", v)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestRepeatsTakeEachUnitsFastestRepeat(t *testing.T) {
	var r repeats
	r.add([]float64{5, 1, 9})
	r.add([]float64{3, 2, 9})
	r.add([]float64{4, 1.5, 7})
	if got := r.best(); got[0] != 3 || got[1] != 1 || got[2] != 7 {
		t.Errorf("best = %v, want [3 1 7]", got)
	}
	if got := r.bestTotal(); got != 11 {
		t.Errorf("bestTotal = %g, want 11", got)
	}
}

func TestTimingTakesEachPeriodsFastestRepeat(t *testing.T) {
	// Period j runs j ms at its fastest; its other repeats are slower.
	newRepeats := func(periods int) *repeats {
		var r repeats
		for rep := 0; rep < 3; rep++ {
			run := make([]float64, periods)
			for j := range run {
				run[j] = float64(j+1) + 1000*float64((rep+j)%3)
			}
			r.add(run)
		}
		return &r
	}
	b := &bench{out: io.Discard, e2e: map[string]metricValue{}, correct: true}
	b.timing("period_ms", "ms", newRepeats(300))
	if !b.correct {
		t.Fatal("timing failed its sample-count check on 300 periods")
	}
	if got := b.e2e["period_ms_p50"].Value; got != 150.5 {
		t.Errorf("p50 = %g, want 150.5", got)
	}
	if got := b.e2e["period_ms_p95"].Value; got != 285 {
		t.Errorf("p95 = %g, want 285, rank 285 of 300 fastest repeats", got)
	}

	// 199 periods leave nine beyond p95.
	b = &bench{out: io.Discard, e2e: map[string]metricValue{}, correct: true}
	b.timing("period_ms", "ms", newRepeats(199))
	if _, ok := b.e2e["period_ms_p95"]; ok || b.correct || b.failed != 1 {
		t.Errorf("199 periods: p95 reported %v, correct %v, failed %d; want none, false, 1", ok, b.correct, b.failed)
	}
}

func TestSetupTimerNeedsASlotPerRound(t *testing.T) {
	var calls, undone int
	st := newSetupTimer(3, 2, func() (func(), error) {
		calls++
		return func() { undone++ }, nil
	})
	b := &bench{e2e: map[string]metricValue{}}
	for i := 0; i < 2; i++ {
		if err := st.slot(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.record(b); err == nil {
		t.Error("record with 2 slots for 3 rounds succeeded")
	}
	if err := st.slot(nil); err != nil {
		t.Fatal(err)
	}
	if err := st.record(b); err != nil {
		t.Fatal(err)
	}
	if calls != 6 || undone != 6 {
		t.Errorf("3 slots of 2 setups: %d setups, %d undone; want 6, 6", calls, undone)
	}
	if v := b.e2e["setup_s"].Value; !(v > 0) {
		t.Errorf("setup_s = %g, want > 0", v)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: 10..50 covered once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent: only 90..100 counts
		{ID: 4, Parent: 1, Start: 12, End: 18},
		{ID: 5, Parent: -1, Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNestsSpansAndMovesProbeCounts(t *testing.T) {
	tr := newTracer(true)
	p := &probe{}
	ep := tr.begin("episode", 7)
	seg := tr.begin("segment", 7)
	p.add(kTick, 40)
	p.add(kTick, 60)
	tr.end(seg, p)
	tr.end(ep)
	s := tr.spans[seg]
	if s.Parent != ep || s.Unit != 7 || s.Calls[kTick] != 2 || s.Busy[kTick] != 100 {
		t.Fatalf("segment span = %+v", s)
	}
	if *p != (probe{}) {
		t.Fatalf("probe not reset after its counts moved: %+v", *p)
	}
	off := newTracer(false)
	if id := off.begin("x", 0); id != -1 || len(off.spans) != 0 {
		t.Fatalf("disabled tracer recorded span %d", id)
	}
}

func TestMaxRateStopsAtFirstFailure(t *testing.T) {
	rates := []float64{25, 50, 100, 150, 200}
	for _, tc := range []struct {
		ok   []bool
		want float64
	}{
		{[]bool{true, true, true, false, true}, 100}, // a pass above a failure is not credited
		{[]bool{true, true, true, true, true}, 200},
		{[]bool{false, true, true, true, true}, 0},
		{[]bool{true, true, false}, 50}, // the ladder ended early
	} {
		if got := maxRate(rates[:len(tc.ok)], tc.ok); got != tc.want {
			t.Errorf("maxRate(%v) = %g, want %g", tc.ok, got, tc.want)
		}
	}
}

func TestStepOKNeedsAllThreeConditions(t *testing.T) {
	good := func() *serveStep {
		return &serveStep{rttMS: seq(1000), timeoutFrac: 0.005}
	}
	for _, tc := range []struct {
		name string
		mod  func(*serveStep)
		want bool
	}{
		{"all hold", func(*serveStep) {}, true},
		{"one rtt over the limit", func(s *serveStep) { s.rttMS[999] = rttLimitMS + 1 }, true},
		{"rtt p99 over the limit", func(s *serveStep) {
			for i := 989; i < 1000; i++ {
				s.rttMS[i] = rttLimitMS + 1
			}
		}, false},
		{"too few rtt samples", func(s *serveStep) { s.rttMS = s.rttMS[:500] }, false},
		{"timeouts over 1%", func(s *serveStep) { s.timeoutFrac = 0.011 }, false},
		{"backlog grew", func(s *serveStep) { s.grew = true }, false},
		{"unanswered requests", func(s *serveStep) { s.failed = 1 }, false},
	} {
		s := good()
		for i := range s.rttMS {
			s.rttMS[i] = s.rttMS[i] / 1000 // 1 µs .. 1 ms
		}
		tc.mod(s)
		if got := stepOK(s); got != tc.want {
			t.Errorf("%s: stepOK = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := []float64{20, 25, 18, 22, 30, 19, 24, 21, 23}
	climbing := []float64{10, 40, 80, 120, 160, 200, 240, 280, 320}
	if backlogGrew(steady, 32) {
		t.Error("steady backlog reported as growing")
	}
	if !backlogGrew(climbing, 32) {
		t.Error("climbing backlog not reported")
	}
	if backlogGrew([]float64{5, 90}, 32) {
		t.Error("two samples are too few to call growth")
	}
}

func TestScheduleTimesLatenessFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := &schedule{start: t0, interval: time.Millisecond, total: 5}
	n, late := s.take(t0.Add(2500*time.Microsecond), nil)
	if n != 3 {
		t.Fatalf("took %d requests at 2.5 ms, want 3 (due at 0, 1, 2 ms)", n)
	}
	for i, want := range []float64{2.5, 1.5, 0.5} {
		if math.Abs(late[i]-want) > 1e-9 {
			t.Errorf("request %d lateness = %g ms, want %g", i, late[i], want)
		}
	}
	if n, _ = s.take(t0.Add(2600*time.Microsecond), late); n != 0 {
		t.Errorf("took %d requests before the next was due", n)
	}
	// A stall: the generator wakes at 10 ms and sends the last two late.
	n, late = s.take(t0.Add(10*time.Millisecond), late)
	if n != 2 || late[3] != 7 || late[4] != 6 || !s.due(4).Equal(t0.Add(4*time.Millisecond)) {
		t.Errorf("after a stall took %d with lateness %v", n, late[3:])
	}
	if n, _ = s.take(t0.Add(time.Second), late); n != 0 || s.next != s.total {
		t.Errorf("schedule sent past its total: %d more, next %d", n, s.next)
	}
}

func TestRespReaderCountsStatusesAcrossReads(t *testing.T) {
	stream := "HTTP/1.1 204 No Content\r\n\r\n" +
		"HTTP/1.1 404 Not Found\r\nContent-Length: 5\r\n\r\nnope\n" +
		"HTTP/1.1 204 No Content\r\n\r\n"
	var r respReader
	total := 0
	for i := 0; i < len(stream); i += 7 { // responses split at arbitrary points
		n, err := r.feed([]byte(stream[i:min(i+7, len(stream))]))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 3 || r.ok != 2 || r.bad != 1 || len(r.buf) != 0 {
		t.Fatalf("got %d responses, %d ok, %d bad, %d bytes left", total, r.ok, r.bad, len(r.buf))
	}
}

// The wrappers must keep every optional interface callers look for.
func TestWrappersForwardReporters(t *testing.T) {
	guarded := fault.NewGuardedPolicy(baselines.NewMaxFreq(), fault.GuardConfig{})
	var pol server.Policy = newTimedPolicy(guarded, &probe{}, kTick, kCallback)
	sr, ok := pol.(server.StatsReporter)
	if !ok {
		t.Fatal("timed policy hides server.StatsReporter")
	}
	if got, want := len(sr.ResultStats()), len(guarded.ResultStats()); got != want || want == 0 {
		t.Errorf("forwarded %d stats, guard reports %d", got, want)
	}
	if s := newTimedPolicy(baselines.NewMaxFreq(), &probe{}, kTick, kCallback).ResultStats(); s != nil {
		t.Errorf("policy without stats reported %v", s)
	}

	dp, err := agent.New(agentConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var tr agent.Trainable = newTimedAgent(dp, &probe{}, newTracer(false))
	if _, ok := tr.(agent.LossReporter); !ok {
		t.Error("timed agent hides agent.LossReporter")
	}
	if d, ok := tr.(agent.DivergenceReporter); !ok || d.DivergenceCount() != dp.DivergenceCount() {
		t.Error("timed agent hides agent.DivergenceReporter")
	}
	if _, ok := tr.(server.StatsReporter); !ok {
		t.Error("timed agent hides server.StatsReporter")
	}
	if tr.Name() != dp.Name() {
		t.Errorf("timed agent renamed the policy to %q", tr.Name())
	}
}

// BENCHMARK.json and the metric tables here must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q %q here", i, w, workloads[i].name, workloads[i].why)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, m, want[i])
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
