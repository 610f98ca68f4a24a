package ddp

import (
	"math"
	"testing"

	"gnnmark/internal/datasets"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/ops"
)

// scalingFactory builds seed-identical replicas of a small configuration of
// one workload. Strong scaling shards the batch across the world (env.World
// = world); weak scaling leaves every replica at World 1, so each trains the
// full per-GPU batch while still ring-allreducing its gradients.
func scalingFactory(name string, weak bool) ReplicaFactory {
	return func(rank, world int) (models.Workload, *models.Env) {
		cfg := gpu.V100()
		cfg.MaxSampledWarps = 128
		env := models.NewEnv(ops.New(gpu.New(cfg)), 21)
		if !weak {
			env.Rank, env.World = rank, world
		}
		switch name {
		case "DGCN":
			ds := datasets.MolHIV(env.RNG)
			ds.Graphs = ds.Graphs[:64]
			ds.Features = ds.Features[:64]
			ds.Labels = ds.Labels[:64]
			return models.NewDGCN(env, ds, models.DGCNConfig{Layers: 8, Hidden: 48, BatchSize: 64}), env
		case "STGCN":
			return models.NewSTGCN(env, datasets.METRLA(env.RNG),
				models.STGCNConfig{Channels: 16, BatchSize: 32, Batches: 1}), env
		case "TLSTM":
			ds := datasets.SST(env.RNG)
			ds.Trees = ds.Trees[:32]
			return models.NewTLSTM(env, ds, models.TLSTMConfig{EmbedDim: 16, Hidden: 16, BatchSize: 16}), env
		case "PSAGE":
			return models.NewPSAGE(env, datasets.MovieLens(env.RNG),
				models.PSAGEConfig{Hidden: 16, BatchSize: 16, Batches: 3}), env
		}
		panic("unknown " + name)
	}
}

// strongSeries caches each workload's executed 1/2/4-GPU strong-scaling
// series: several tests read the same runs.
var strongSeries = map[string][]Result{}

func strongScaling(t *testing.T, name string) []Result {
	t.Helper()
	if res, ok := strongSeries[name]; ok {
		return res
	}
	res, err := ExecutedStrongScaling(scalingFactory(name, false), []int{1, 2, 4}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	strongSeries[name] = res
	return res
}

func TestAllreduceCost(t *testing.T) {
	cfg := DefaultComm()
	if AllreduceSeconds(cfg, 1, 1<<20) != 0 {
		t.Fatal("single GPU must have zero comm")
	}
	c2 := AllreduceSeconds(cfg, 2, 1<<20)
	c4 := AllreduceSeconds(cfg, 4, 1<<20)
	if c2 <= 0 || c4 <= c2 {
		t.Fatalf("comm must grow with world size: %g %g", c2, c4)
	}
	// Bigger payload costs more.
	if AllreduceSeconds(cfg, 4, 1<<24) <= c4 {
		t.Fatal("comm must grow with payload")
	}
}

func TestStrongScalingComputeHeavyWorkloadScales(t *testing.T) {
	res := strongScaling(t, "STGCN")
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Speedup != 1 {
		t.Fatalf("baseline speedup = %g", res[0].Speedup)
	}
	if res[2].Speedup <= 1.2 {
		t.Fatalf("STGCN 4-GPU speedup = %.2f, want > 1.2", res[2].Speedup)
	}
	if res[1].CommSeconds <= 0 {
		t.Fatal("multi-GPU must pay communication")
	}
	for _, r := range res {
		if r.Replicated {
			t.Fatal("STGCN must not replicate")
		}
	}
}

func TestStrongScalingPSAGEDegrades(t *testing.T) {
	res := strongScaling(t, "PSAGE")
	if !res[1].Replicated || !res[2].Replicated {
		t.Fatal("PSAGE must be marked replicated beyond 1 GPU")
	}
	if res[2].Speedup >= 1.0 {
		t.Fatalf("PSAGE 4-GPU speedup = %.2f, want < 1 (degradation)", res[2].Speedup)
	}
	// Degradation worsens with more GPUs.
	if res[2].Speedup > res[1].Speedup {
		t.Fatalf("PSAGE should degrade monotonically: %v", res)
	}
}

func TestStrongScalingTLSTMFlat(t *testing.T) {
	res := strongScaling(t, "TLSTM")
	if res[2].Speedup > 1.3 {
		t.Fatalf("TLSTM 4-GPU speedup = %.2f, want near-flat (launch-bound)", res[2].Speedup)
	}
}

func TestStrongScalingOrdering(t *testing.T) {
	// The Figure 9 shape: compute-heavy workloads scale better than the
	// launch-bound one, which beats the replicated one.
	stgcn := strongScaling(t, "STGCN")[2].Speedup
	tlstm := strongScaling(t, "TLSTM")[2].Speedup
	psage := strongScaling(t, "PSAGE")[2].Speedup
	if !(stgcn > tlstm && tlstm > psage) {
		t.Fatalf("scaling order wrong: STGCN %.2f, TLSTM %.2f, PSAGE %.2f", stgcn, tlstm, psage)
	}
}

func TestWeakScalingEfficiency(t *testing.T) {
	res, err := ExecutedStrongScaling(scalingFactory("DGCN", true), []int{1, 2, 4}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Speedup-1) > 1e-9 {
		t.Fatalf("baseline efficiency = %g", res[0].Speedup)
	}
	// Efficiency decays but stays positive; compute stays constant.
	if res[2].Speedup >= 1 || res[2].Speedup <= 0 {
		t.Fatalf("weak-scaling efficiency = %g", res[2].Speedup)
	}
	ratio := res[2].ComputeSeconds / res[0].ComputeSeconds
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("weak scaling compute should be constant, ratio %g", ratio)
	}
}

func TestStrongScalingPanicsOnBadGPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewCluster(0, ClusterConfig{})
}
