package rl

import (
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/nn/nntest"
	"github.com/deeppower/deeppower/internal/sim"
)

// mkTransitions builds a deterministic minibatch with a mix of terminal and
// non-terminal rows. For discrete agents the action is a single index.
func mkTransitions(rng *sim.RNG, n, stateDim, actionDim int, discrete bool, numActions int) []Transition {
	batch := make([]Transition, n)
	for i := range batch {
		tr := Transition{
			State:     make([]float64, stateDim),
			NextState: make([]float64, stateDim),
			Reward:    rng.Uniform(-1, 1),
			Done:      i%5 == 3,
		}
		for j := range tr.State {
			tr.State[j] = rng.Uniform(0, 1)
			tr.NextState[j] = rng.Uniform(0, 1)
		}
		if discrete {
			tr.Action = []float64{float64(rng.Intn(numActions))}
		} else {
			tr.Action = make([]float64, actionDim)
			for j := range tr.Action {
				tr.Action[j] = rng.Uniform(0, 1)
			}
		}
		batch[i] = tr
	}
	return batch
}

// bitEqSlice fails unless two float slices match bit-for-bit.
func bitEqSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: batched %v vs per-sample %v", what, i, got[i], want[i])
		}
	}
}

func bitEqLayers(t *testing.T, what string, got, want []*nn.Dense) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: layer count %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		bitEqSlice(t, what+" W", got[i].W, want[i].W)
		bitEqSlice(t, what+" B", got[i].B, want[i].B)
	}
}

func bitEqLoss(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: batched %v vs per-sample %v", what, got, want)
	}
}

// TestDDPGBatchBitIdentity trains two identically-seeded agents — one on the
// batched Update, one on the per-sample reference — and requires every
// weight of all four networks to stay bit-identical, for both actor
// topologies.
func TestDDPGBatchBitIdentity(t *testing.T) {
	nntest.EachKernelPath(t, func(t *testing.T) {
		for _, twoHead := range []bool{false, true} {
			cfg := DDPGConfig{StateDim: 6, ActionDim: 2, TwoHeadActor: twoHead, Seed: 99}
			bat, err := NewDDPG(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewDDPG(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(7)
			for step := 0; step < 5; step++ {
				batch := mkTransitions(rng, 32, cfg.StateDim, cfg.ActionDim, false, 0)
				cB, aB := bat.Update(batch)
				cR, aR := ref.updatePerSample(batch)
				bitEqLoss(t, "critic loss", cB, cR)
				bitEqLoss(t, "actor loss", aB, aR)
			}
			bitEqLayers(t, "actor", bat.Actor.Params(), ref.Actor.Params())
			bitEqLayers(t, "actor target", bat.ActorTarget.Params(), ref.ActorTarget.Params())
			bitEqLayers(t, "critic", bat.Critic.Layers(), ref.Critic.Layers())
			bitEqLayers(t, "critic target", bat.CriticTarget.Layers(), ref.CriticTarget.Layers())
		}
	})
}

// TestTD3BatchBitIdentity covers the twin critics, the delayed actor update,
// and the target-smoothing RNG draw order (noise is drawn for non-terminal
// rows only).
func TestTD3BatchBitIdentity(t *testing.T) {
	nntest.EachKernelPath(t, func(t *testing.T) {
		cfg := TD3Config{StateDim: 6, ActionDim: 2, Seed: 101}
		bat, err := NewTD3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewTD3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(11)
		for step := 0; step < 4; step++ {
			batch := mkTransitions(rng, 32, cfg.StateDim, cfg.ActionDim, false, 0)
			c1B, c2B, aB := bat.Update(batch)
			c1R, c2R, aR := ref.updatePerSample(batch)
			bitEqLoss(t, "critic1 loss", c1B, c1R)
			bitEqLoss(t, "critic2 loss", c2B, c2R)
			if !math.IsNaN(aB) || !math.IsNaN(aR) {
				bitEqLoss(t, "actor loss", aB, aR)
			}
		}
		bitEqLayers(t, "actor", bat.Actor.Params(), ref.Actor.Params())
		bitEqLayers(t, "actor target", bat.ActorTarget.Params(), ref.ActorTarget.Params())
		bitEqLayers(t, "critic1", bat.Critic1.Layers(), ref.Critic1.Layers())
		bitEqLayers(t, "critic2", bat.Critic2.Layers(), ref.Critic2.Layers())
		bitEqLayers(t, "target1", bat.Target1.Layers(), ref.Target1.Layers())
		bitEqLayers(t, "target2", bat.Target2.Layers(), ref.Target2.Layers())
	})
}

// TestSACBatchBitIdentity covers the reparameterized draws (RNG order: next
// states for non-terminal rows, then all rows in the actor pass) and the
// masked min-critic backward.
func TestSACBatchBitIdentity(t *testing.T) {
	nntest.EachKernelPath(t, func(t *testing.T) {
		cfg := SACConfig{StateDim: 6, ActionDim: 2, Seed: 103}
		bat, err := NewSAC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSAC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(13)
		for step := 0; step < 4; step++ {
			batch := mkTransitions(rng, 32, cfg.StateDim, cfg.ActionDim, false, 0)
			c1B, c2B, aB := bat.Update(batch)
			c1R, c2R, aR := ref.updatePerSample(batch)
			bitEqLoss(t, "critic1 loss", c1B, c1R)
			bitEqLoss(t, "critic2 loss", c2B, c2R)
			bitEqLoss(t, "actor loss", aB, aR)
		}
		bitEqLayers(t, "actor", bat.Actor.Layers, ref.Actor.Layers)
		bitEqLayers(t, "critic1", bat.Critic1.Layers(), ref.Critic1.Layers())
		bitEqLayers(t, "critic2", bat.Critic2.Layers(), ref.Critic2.Layers())
		bitEqLayers(t, "target1", bat.Target1.Layers(), ref.Target1.Layers())
		bitEqLayers(t, "target2", bat.Target2.Layers(), ref.Target2.Layers())
	})
}

// TestDQNBatchBitIdentity covers both the plain and double (decoupled
// selection/evaluation) bootstrap paths.
func TestDQNBatchBitIdentity(t *testing.T) {
	nntest.EachKernelPath(t, func(t *testing.T) {
		for _, double := range []bool{false, true} {
			cfg := DQNConfig{StateDim: 6, NumActions: 4, Double: double, Seed: 107}
			bat, err := NewDQN(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewDQN(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(17)
			for step := 0; step < 5; step++ {
				batch := mkTransitions(rng, 32, cfg.StateDim, 0, true, cfg.NumActions)
				bitEqLoss(t, "loss", bat.Update(batch), ref.updatePerSample(batch))
			}
			bitEqLayers(t, "q", bat.Q.Layers, ref.Q.Layers)
			bitEqLayers(t, "target", bat.Target.Layers, ref.Target.Layers)
		}
	})
}

// TestTrainStepZeroAllocs pins the tentpole guarantee: after a warm-up has
// grown every scratch arena, a steady-state train step performs zero heap
// allocations, for all four trainers.
func TestTrainStepZeroAllocs(t *testing.T) {
	nntest.EachKernelPath(t, func(t *testing.T) {
		rng := sim.NewRNG(23)
		const n = 64

		ddpg, err := NewDDPG(DDPGConfig{StateDim: 6, ActionDim: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		contBatch := mkTransitions(rng, n, 6, 2, false, 0)
		td3, err := NewTD3(TD3Config{StateDim: 6, ActionDim: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sac, err := NewSAC(SACConfig{StateDim: 6, ActionDim: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		dqn, err := NewDQN(DQNConfig{StateDim: 6, NumActions: 4, Double: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		discBatch := mkTransitions(rng, n, 6, 0, true, 4)

		for name, step := range map[string]func(){
			"ddpg": func() { ddpg.Update(contBatch) },
			"td3":  func() { td3.Update(contBatch) },
			"sac":  func() { sac.Update(contBatch) },
			"dqn":  func() { dqn.Update(discBatch) },
		} {
			step() // warm-up grows the arenas
			step()
			if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
				t.Errorf("%s: steady-state train step allocates %v times, want 0", name, allocs)
			}
		}
	})
}

// TestSampleIntoMatchesSample: under the same seed, SampleInto must consume
// the RNG identically to Sample and pick the same transitions.
func TestSampleIntoMatchesSample(t *testing.T) {
	mk := func(seed int64) *Replay {
		rp := NewReplay(8, sim.NewRNG(seed))
		for i := 0; i < 8; i++ {
			rp.Push(Transition{Reward: float64(i)})
		}
		return rp
	}
	a, b := mk(5), mk(5)
	for round := 0; round < 3; round++ {
		want := a.Sample(6)
		got := make([]Transition, 6)
		b.SampleInto(got)
		for i := range want {
			if got[i].Reward != want[i].Reward {
				t.Fatalf("round %d sample %d: SampleInto picked %v, Sample picked %v",
					round, i, got[i].Reward, want[i].Reward)
			}
		}
	}
}

// TestSampleIntoWraparound samples from a ring that has evicted its oldest
// entries: only live transitions may appear.
func TestSampleIntoWraparound(t *testing.T) {
	rp := NewReplay(4, sim.NewRNG(3))
	for i := 0; i < 7; i++ { // rewards 3..6 survive
		rp.Push(Transition{Reward: float64(i)})
	}
	dst := make([]Transition, 64)
	rp.SampleInto(dst)
	for i, tr := range dst {
		if tr.Reward < 3 || tr.Reward > 6 {
			t.Fatalf("dst[%d]: sampled evicted/out-of-range transition %v", i, tr.Reward)
		}
	}
}

// TestSampleIntoShortPool: a destination larger than the pool draws with
// replacement from whatever is stored rather than reading stale slots.
func TestSampleIntoShortPool(t *testing.T) {
	rp := NewReplay(16, sim.NewRNG(9))
	rp.Push(Transition{Reward: 1})
	rp.Push(Transition{Reward: 2})
	dst := make([]Transition, 32)
	rp.SampleInto(dst)
	seen := map[float64]bool{}
	for i, tr := range dst {
		if tr.Reward != 1 && tr.Reward != 2 {
			t.Fatalf("dst[%d]: sampled uninitialized slot (reward %v)", i, tr.Reward)
		}
		seen[tr.Reward] = true
	}
	if len(seen) != 2 {
		t.Fatalf("32 draws from a 2-entry pool hit %d distinct entries, want 2", len(seen))
	}
}

// TestSampleIntoEmptyPanics documents the empty-pool contract.
func TestSampleIntoEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInto on an empty pool did not panic")
		}
	}()
	rp := NewReplay(4, sim.NewRNG(1))
	rp.SampleInto(make([]Transition, 1))
}
