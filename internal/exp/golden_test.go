package exp

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/deeppower/deeppower/internal/nn/nntest"
)

// updateGolden regenerates the committed golden artifacts:
//
//	go test ./internal/exp -run TestGoldenArtifacts -update-golden
//
// The goldens exist to pin the repository's numerics: performance work on
// the nn/rl hot paths (batched kernels, scratch arenas) must change speed,
// not results, so training harness output is kept byte-identical across
// such refactors. Only regenerate after a change that intentionally alters
// experiment numerics.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden artifacts")

// goldenHarnesses are the fixed-seed harnesses pinned byte-for-byte. fig8
// trains the full DDPG DeepPower agent; ablation additionally exercises the
// two-head actor, the TD3 backend, and the DQN comparison — together they
// cover every training code path the batched kernels replaced. fig4 records
// a tick-resolution controller frequency trace with request begin/end
// markers, pinning the event engine's exact firing order (arrivals,
// completions, ticks) through the simulation-core fast path.
var goldenHarnesses = []string{"fig4", "fig8", "ablation"}

// TestGoldenArtifacts asserts every pinned harness renders byte-identical
// artifacts to the committed goldens in testdata/golden/.
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains agents")
	}
	scale := equivScale()
	for _, name := range goldenHarnesses {
		name := name
		t.Run(name, func(t *testing.T) {
			nntest.EachKernelPath(t, func(t *testing.T) {
				h, err := HarnessByName(name)
				if err != nil {
					t.Fatal(err)
				}
				arts, err := h.Run(context.Background(), scale, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(arts) == 0 {
					t.Fatal("harness produced no artifacts")
				}
				dir := filepath.Join("testdata", "golden", name)
				if *updateGolden {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
				}
				for _, a := range arts {
					path := filepath.Join(dir, a.Name+"."+a.Ext+".golden")
					if *updateGolden {
						if err := os.WriteFile(path, []byte(a.Data), 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden (run with -update-golden): %v", err)
					}
					if a.Data != string(want) {
						t.Errorf("%s.%s drifted from golden:\n%s",
							a.Name, a.Ext, firstDiff(a.Data, string(want)))
					}
				}
			})
		})
	}
}
