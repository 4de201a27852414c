package exp

import (
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// TestEpisodeStepZeroAllocs is the allocation guard for the simulation fast
// path: once an episode reaches steady state — request pool, queue ring,
// event arena, and latency digests all warmed to their high-water marks — a
// 1 ms episode step (arrivals, dispatches, completions, the policy tick, and
// power accounting) must allocate zero bytes. Any regression in the typed
// heap, the request pool, the fifo ring, the sampler fast path, or a
// baseline's per-request frequency decision shows up here as a nonzero
// count.
func TestEpisodeStepZeroAllocs(t *testing.T) {
	prof, err := app.ByName(app.Xapian)
	if err != nil {
		t.Fatal(err)
	}
	prof.Workers = 4
	samples, err := baselines.CollectServiceData(prof, 0.5, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pol  func() (server.Policy, error)
	}{
		{"maxfreq", func() (server.Policy, error) { return baselines.NewMaxFreq(), nil }},
		{"retail", func() (server.Policy, error) { return baselines.FitRetail(samples) }},
		{"gemini", func() (server.Policy, error) {
			return baselines.FitGemini(samples, baselines.GeminiTrainConfig{Seed: 5, Epochs: 5})
		}},
		{"rubik", func() (server.Policy, error) { return baselines.FitRubik(samples) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := tc.pol()
			if err != nil {
				t.Fatal(err)
			}
			// A constant-rate trace keeps the steady state genuinely
			// steady: no diurnal ramp can raise a high-water mark
			// mid-measurement.
			trace := workload.Constant(300, 60*sim.Second)
			eng := sim.NewEngine()
			srv, err := server.New(eng, server.Config{
				App:  prof,
				Seed: 42,
				// The long-training-run configuration: latency samples
				// stream into the mean/p99 digests instead of being
				// retained per request.
				DiscardLatencies: true,
			}, pol)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Begin(trace, 60*sim.Second); err != nil {
				t.Fatal(err)
			}
			// Warm up for two simulated seconds (~600 requests) to
			// fill every pool.
			at := 2 * sim.Second
			eng.RunUntil(at)

			allocs := testing.AllocsPerRun(200, func() {
				at += sim.Millisecond
				eng.RunUntil(at)
			})
			if allocs != 0 {
				t.Errorf("steady-state episode step allocated %.2f times per 1ms step, want 0", allocs)
			}
		})
	}
}
