package core

import (
	"fmt"

	"gnnmark/internal/datasets"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/graph"
	"gnnmark/internal/models"
	"gnnmark/internal/ops"
	"gnnmark/internal/partitioned"
)

// PartitionedWorkloads lists the registry keys the graph-partitioned plane
// supports: the suite's full-graph (ARGA) and batched-graph (DGCN) GCN
// workloads, the two the paper's multi-GPU discussion singles out.
func PartitionedWorkloads() []string { return []string{"ARGA", "DGCN"} }

// PartitionedFactory returns the per-rank builder for cfg's workload under
// the partitioned plane. partition overrides the node labeling (nil uses
// graph.PartitionBFS); it must be deterministic — every rank runs it.
func PartitionedFactory(cfg RunConfig, partition func(g *graph.CSR, k int) ([]int32, int)) (partitioned.Factory, error) {
	cfg.defaults()
	spec, dataset, be, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	// Rank = fleet slot under the partitioned plane.
	rankDevice, err := cfg.fleetDevices()
	if err != nil {
		return nil, err
	}

	switch spec.Key {
	case "ARGA", "DGCN":
	default:
		return nil, fmt.Errorf("core: workload %s does not support partitioned training (have %v)",
			spec.Key, PartitionedWorkloads())
	}

	return func(rank, world int) (models.PartWorkload, *models.Env, *gpu.Device) {
		dev := gpu.New(rankDevice(rank))
		if cfg.OnDevice != nil {
			cfg.OnDevice(dev)
		}
		// The partitioned plane never enables the pipeline: its own
		// two-stream timeline owns the overlap model, so the Env's clock
		// must stay the serialized device clock.
		env := models.NewEnv(ops.NewWith(dev, be), cfg.Seed)
		switch spec.Key {
		case "ARGA":
			ds := datasets.NewCitation(env.RNG, dataset)
			return models.NewPartitionedARGA(env, ds, models.ARGAConfig{}, rank, world, partition), env, dev
		default: // DGCN
			ds := datasets.MolHIV(env.RNG)
			return models.NewPartitionedDGCN(env, ds, models.DGCNConfig{}, rank, world, partition), env, dev
		}
	}, nil
}

// RunPartitioned trains cfg.Workload with the executed graph-partitioned
// engine across cfg.GPUs simulated devices. cfg.Overlap selects the
// boundary-first overlapped halo exchange.
func RunPartitioned(cfg RunConfig) (*partitioned.Result, error) {
	cfg.defaults()
	factory, err := PartitionedFactory(cfg, nil)
	if err != nil {
		return nil, err
	}
	world := cfg.GPUs
	if world < 1 {
		world = 1
	}
	return partitioned.Train(factory, world, cfg.Epochs,
		partitioned.Config{Comm: ddp.DefaultComm(), Overlap: cfg.Overlap})
}
