// Package core is the public surface of the GNNMark suite reproduction: a
// registry of the eight workloads with their datasets (paper Table I) and a
// characterization runner that wires a simulated V100, the profiler, and a
// workload together and returns every metric the paper's figures report.
package core

import (
	"fmt"
	"slices"
	"sort"

	"gnnmark/internal/backend"
	"gnnmark/internal/datasets"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/profiler"
	"gnnmark/internal/stream"
	"gnnmark/internal/vmem"
)

// Spec is one Table I row: a workload, its provenance, and its datasets.
type Spec struct {
	// Key is the paper's mnemonic (PSAGE, STGCN, DGCN, GW, KGNNL, KGNNH,
	// ARGA, TLSTM).
	Key string
	// Model is the full model name.
	Model string
	// Framework is the GNN framework the paper's implementation uses.
	Framework string
	// Domain is the application domain.
	Domain string
	// GraphKind is the graph-data category (homogeneous, heterogeneous,
	// dynamic, trees, batched small graphs).
	GraphKind string
	// Datasets lists usable dataset keys; the first is the default.
	Datasets []string
	// Build constructs the workload on the given dataset with the given
	// DDP batch divisor.
	Build func(env *models.Env, dataset string, batchDivisor int) models.Workload
}

// registry holds the suite in paper order.
var registry = []Spec{
	{
		Key: "PSAGE", Model: "PinSAGE", Framework: "DGL",
		Domain: "Recommendation systems", GraphKind: "heterogeneous bipartite",
		Datasets: []string{"MVL", "NWP"},
		Build: func(env *models.Env, dataset string, div int) models.Workload {
			var ds *datasets.Bipartite
			switch dataset {
			case "MVL":
				ds = datasets.MovieLens(env.RNG)
			case "NWP":
				ds = datasets.NowPlaying(env.RNG)
			default:
				panic("core: PSAGE dataset must be MVL or NWP, got " + dataset)
			}
			return models.NewPSAGE(env, ds, models.PSAGEConfig{BatchDivisor: div})
		},
	},
	{
		Key: "STGCN", Model: "Spatio-Temporal GCN", Framework: "PyTorch",
		Domain: "Traffic forecasting", GraphKind: "dynamic (spatio-temporal)",
		Datasets: []string{"METR-LA"},
		Build: func(env *models.Env, dataset string, div int) models.Workload {
			return models.NewSTGCN(env, datasets.METRLA(env.RNG), models.STGCNConfig{BatchDivisor: div})
		},
	},
	{
		Key: "DGCN", Model: "DeepGCN", Framework: "PyG",
		Domain: "Molecular property prediction", GraphKind: "batched molecule graphs",
		Datasets: []string{"ogbg-molhiv"},
		Build: func(env *models.Env, dataset string, div int) models.Workload {
			return models.NewDGCN(env, datasets.MolHIV(env.RNG), models.DGCNConfig{BatchDivisor: div})
		},
	},
	{
		Key: "GW", Model: "GraphWriter", Framework: "PyTorch",
		Domain: "Text generation from knowledge graphs", GraphKind: "knowledge graphs",
		Datasets: []string{"AGENDA"},
		Build: func(env *models.Env, dataset string, div int) models.Workload {
			return models.NewGW(env, datasets.AGENDA(env.RNG), models.GWConfig{BatchDivisor: div})
		},
	},
	{
		Key: "KGNNL", Model: "k-GNN (1-2-GNN)", Framework: "PyG",
		Domain: "Protein classification", GraphKind: "batched small graphs",
		Datasets: []string{"PROTEINS"},
		Build: func(env *models.Env, dataset string, div int) models.Workload {
			return models.NewKGNN(env, datasets.Proteins(env.RNG), models.KGNNConfig{K: 2, BatchDivisor: div})
		},
	},
	{
		Key: "KGNNH", Model: "k-GNN (1-2-3-GNN)", Framework: "PyG",
		Domain: "Protein classification", GraphKind: "batched small graphs",
		Datasets: []string{"PROTEINS"},
		Build: func(env *models.Env, dataset string, div int) models.Workload {
			return models.NewKGNN(env, datasets.Proteins(env.RNG), models.KGNNConfig{K: 3, BatchDivisor: div})
		},
	},
	{
		Key: "ARGA", Model: "Adversarially Regularized Graph Autoencoder", Framework: "PyG",
		Domain: "Node clustering / graph embedding", GraphKind: "homogeneous citation graphs",
		Datasets: []string{"cora", "citeseer", "pubmed"},
		Build: func(env *models.Env, dataset string, div int) models.Workload {
			return models.NewARGA(env, datasets.NewCitation(env.RNG, dataset), models.ARGAConfig{})
		},
	},
	{
		Key: "TLSTM", Model: "Child-Sum Tree-LSTM", Framework: "DGL",
		Domain: "Sentiment classification", GraphKind: "batched trees",
		Datasets: []string{"SST"},
		Build: func(env *models.Env, dataset string, div int) models.Workload {
			return models.NewTLSTM(env, datasets.SST(env.RNG), models.TLSTMConfig{BatchDivisor: div})
		},
	},
}

// Registry returns the suite specs in paper order. The returned slice is a
// copy; mutating it does not affect the registry.
func Registry() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the spec with the given key.
func Lookup(key string) (Spec, error) {
	for _, s := range registry {
		if s.Key == key {
			return s, nil
		}
	}
	keys := make([]string, 0, len(registry))
	for _, s := range registry {
		keys = append(keys, s.Key)
	}
	sort.Strings(keys)
	return Spec{}, fmt.Errorf("core: unknown workload %q (have %v)", key, keys)
}

// ResolveDataset resolves a dataset name for the workload: empty selects
// the default (the first listed); a name the workload does not list is an
// error.
func (s Spec) ResolveDataset(name string) (string, error) {
	if name == "" {
		return s.Datasets[0], nil
	}
	if !slices.Contains(s.Datasets, name) {
		return "", fmt.Errorf("core: workload %s has no dataset %q (have %v)", s.Key, name, s.Datasets)
	}
	return name, nil
}

// RunConfig configures one characterization run.
type RunConfig struct {
	// Workload is the registry key; Dataset one of its datasets (empty =
	// default).
	Workload string
	Dataset  string
	// Epochs is the number of training epochs (default 3).
	Epochs int
	// Seed drives all randomness (default 1).
	Seed int64
	// SampledWarps overrides the device's cache-replay budget (default
	// 4096; lower = faster, coarser).
	SampledWarps int
	// HalfPrecision enables the fp16 storage mode (paper future work).
	HalfPrecision bool
	// ForwardOnly characterizes inference instead of training: iterations
	// run the forward pass only, with no backward kernels or optimizer
	// steps (the paper's future-work inference-study mode).
	ForwardOnly bool
	// BypassL1 disables the L1 data cache (all accesses served by L2): the
	// paper's suggested mitigation for the very low L1 hit rates.
	BypassL1 bool
	// GPU selects the device preset: "v100" (default, the paper's GPU),
	// "p100", or "a100" for cross-generation sensitivity studies.
	GPU string
	// GPUs selects executed multi-GPU DDP training (RunDDP): the number of
	// simulated devices, each training a replica on its batch shard with
	// bucketed ring-allreduce gradient averaging. 0 or 1 = single device.
	GPUs int
	// Parallelism selects the executed multi-GPU strategy for GPUs > 1:
	// "ddp" (default, RunDDP's replicated model + sharded batches) or
	// "partitioned" (RunPartitioned's one-graph-part-per-GPU plane with
	// halo exchange; ARGA and DGCN only).
	Parallelism string
	// Overlap enables the boundary-first overlapped halo exchange under
	// the partitioned plane (ignored by DDP).
	Overlap bool
	// HBMGB overrides the simulated device-memory budget in GiB (0 = the
	// GPU preset's capacity, 16 GiB on the V100). Runs whose footprint
	// exceeds the budget return a *vmem.OOMError naming the failing kernel
	// and the top live allocations.
	HBMGB float64
	// Devices, when non-empty, pins an explicit device model per fleet
	// slot, overriding GPU/HBMGB: slot i (= rank under DDP/partitioned,
	// the only device when GPUs <= 1) runs on Devices[i]. The scenario
	// plane uses this to declare heterogeneous fleets (mixed V100/A100/
	// H100 nodes); SampledWarps/HalfPrecision/BypassL1 still apply on top.
	// Device models shape timing only — numerics are identical across
	// presets — so mixed fleets keep every equivalence guarantee.
	Devices []gpu.Config
	// Backend selects the CPU numerics backend: "serial" (default) or
	// "parallel". Both produce bitwise-identical results; parallel tiles
	// large kernels across a worker pool to speed up simulation wall-clock.
	Backend string
	// PipelineDepth enables the asynchronous input pipeline: input batches
	// are staged ahead by loader workers and their H2D copies run on a
	// dedicated copy-engine stream, overlapped with compute up to this many
	// iterations ahead. 0 = synchronous (the baseline). Numerics are
	// bitwise-identical either way; only the overlapped timeline differs.
	PipelineDepth int
	// LoaderWorkers is the loader worker-goroutine count (0 = default).
	LoaderWorkers int
	// CompressH2D times the copy engine on sparsity-encoded H2D bytes
	// (zero-run / bitmap codec) instead of raw; requires PipelineDepth > 0.
	CompressH2D bool
	// StopWhen, when non-nil, is asked after every epoch whether that
	// epoch's mean loss ends training early; Epochs stays the cap. It is
	// the time-to-train loop.
	StopWhen func(loss float64) bool
	// OnDevice, when non-nil, is invoked with each simulated device right
	// after construction — the hook the CLI uses to attach a trace.Recorder
	// before any kernels launch.
	OnDevice func(*gpu.Device)
}

func (c *RunConfig) defaults() {
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampledWarps == 0 {
		c.SampledWarps = 4096
	}
}

// RunResult is the outcome of one characterization run.
type RunResult struct {
	Workload string
	Dataset  string
	Report   profiler.Report
	// SparsityTimeline is the per-iteration H2D zero fraction (Figure 8).
	SparsityTimeline []float64
	// EpochSeconds is simulated time per epoch.
	EpochSeconds []float64
	// SetupSeconds is the simulated device time workload construction
	// took (preprocessing kernels, initial uploads) before the training
	// clock started at zero.
	SetupSeconds float64
	// Losses is the mean training loss per epoch.
	Losses []float64
	// ParamCount is the model's trainable parameter count.
	ParamCount int
	// PerClass carries the per-op-class stats for Figures 5/6 per-op views.
	PerClass map[gpu.OpClass]profiler.ClassStats
	// HostPhases is the per-epoch host wall-clock phase breakdown; empty
	// unless obs.Enabled during the run.
	HostPhases []obs.PhaseBreakdown
	// HostOpClasses is the per-epoch host-time attribution by gpu.OpClass
	// (the engine's per-op interval accounting); empty unless obs.Enabled
	// during the run. Index-aligned with HostPhases.
	HostOpClasses []ops.OpClassBreakdown
	// Mem snapshots the device allocator after training: peak-live is the
	// per-iteration footprint high-water mark (the memory figure's input).
	Mem vmem.Stats
	// Pipe is the per-epoch pipeline accounting (sync vs overlapped epoch
	// time, per-stream busy time, raw vs encoded H2D bytes); empty unless
	// PipelineDepth > 0.
	Pipe []ops.PipeEpoch
	// StreamLanes snapshots the per-stream busy/idle accounting and trace
	// slices at the end of the run; nil unless PipelineDepth > 0.
	StreamLanes []stream.Lane
}

// Run executes one characterization run: build device + profiler + model,
// train, snapshot. A workload whose footprint exceeds the device-memory
// budget returns a *vmem.OOMError (the simulated-OOM report) as err.
func Run(cfg RunConfig) (res RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if oom, ok := r.(*vmem.OOMError); ok {
				err = oom
				return
			}
			panic(r)
		}
	}()
	cfg.defaults()
	spec, dataset, be, err := cfg.resolve()
	if err != nil {
		return RunResult{}, err
	}
	devCfg, err := cfg.DeviceConfig(0)
	if err != nil {
		return RunResult{}, err
	}
	dev := gpu.New(devCfg)
	if cfg.OnDevice != nil {
		cfg.OnDevice(dev)
	}
	prof := profiler.Attach(dev)
	env := models.NewEnv(ops.NewWith(dev, be), cfg.Seed)
	env.OnIteration = prof.NextIteration
	env.Training = !cfg.ForwardOnly
	// The pipeline config must be set before Build: workload constructors
	// create their input loaders from it.
	env.Pipeline = models.PipelineConfig{
		Depth:       cfg.PipelineDepth,
		Workers:     cfg.LoaderWorkers,
		CompressH2D: cfg.CompressH2D,
	}
	defer env.Close()

	w := spec.Build(env, dataset, 1)
	// Construction may launch preprocessing kernels; measure training only
	// (memory peaks rebase to the still-live construction footprint).
	setup := dev.ElapsedSeconds()
	prof.Reset()
	dev.ResetClock()
	dev.Mem().ResetPeak()
	if obs.Enabled() {
		obs.Reset()
	}
	// Enable the stream timeline after construction and the clock reset, so
	// construction kernels stay on the classic path and the overlapped
	// timeline starts at t = 0 alongside the serialized clock.
	env.E.EnablePipeline(cfg.PipelineDepth, cfg.CompressH2D)

	res = RunResult{
		Workload:     spec.Key,
		Dataset:      dataset,
		ParamCount:   nn.NumParams(w.Params()),
		SetupSeconds: setup,
	}
	lastCap := obs.CapturePhases()
	lastOpCap := ops.CaptureOpClasses()
	for ep := 0; ep < cfg.Epochs; ep++ {
		epochScope := env.E.Track().Begin("epoch", obs.CatPhase)
		res.Losses = append(res.Losses, w.TrainEpoch())
		env.FinishPhase()
		epochScope.End()
		if obs.Enabled() {
			cap1 := obs.CapturePhases()
			res.HostPhases = append(res.HostPhases, lastCap.Delta(cap1))
			lastCap = cap1
			opCap := ops.CaptureOpClasses()
			res.HostOpClasses = append(res.HostOpClasses, opCap.Delta(lastOpCap))
			lastOpCap = opCap
		}
		prof.MarkEpoch()
		if pe, ok := env.E.EpochPipeStats(); ok {
			res.Pipe = append(res.Pipe, pe)
		}
		// Drop dead per-tensor address bookkeeping between epochs so the
		// engine's maps track live tensors, not every activation ever seen.
		env.E.Reset()
		if cfg.StopWhen != nil && cfg.StopWhen(res.Losses[ep]) {
			break
		}
	}
	res.StreamLanes = env.E.StreamLanes()
	res.Report = prof.Snapshot()
	res.SparsityTimeline = prof.SparsityTimeline()
	res.EpochSeconds = prof.EpochSeconds()
	res.Mem = dev.MemStats()
	res.PerClass = map[gpu.OpClass]profiler.ClassStats{}
	for _, c := range gpu.AllOpClasses() {
		if cs := prof.Class(c); cs.Kernels > 0 {
			res.PerClass[c] = *cs
		}
	}
	return res, nil
}

// DeviceConfig resolves the device model for one fleet slot: the explicit
// per-slot override when Devices is set, otherwise the GPU preset with the
// shared HBMGB budget applied. The fidelity knobs (SampledWarps,
// HalfPrecision, BypassL1) apply on top either way.
func (c *RunConfig) DeviceConfig(slot int) (gpu.Config, error) {
	var devCfg gpu.Config
	if len(c.Devices) > 0 {
		if slot < 0 || slot >= len(c.Devices) {
			return gpu.Config{}, fmt.Errorf("core: fleet slot %d outside the %d declared devices",
				slot, len(c.Devices))
		}
		devCfg = c.Devices[slot]
	} else {
		var err error
		devCfg, err = gpu.Preset(c.GPU)
		if err != nil {
			return gpu.Config{}, err
		}
		if c.HBMGB > 0 {
			devCfg.HBMBytes = int64(c.HBMGB * (1 << 30))
		}
	}
	if c.SampledWarps > 0 {
		devCfg.MaxSampledWarps = c.SampledWarps
	}
	devCfg.HalfPrecision = c.HalfPrecision
	devCfg.BypassL1 = c.BypassL1
	return devCfg, nil
}

// resolve looks up the configured workload, its dataset (validated; empty
// selects the default) and the numerics backend.
func (c *RunConfig) resolve() (Spec, string, backend.Backend, error) {
	spec, err := Lookup(c.Workload)
	if err != nil {
		return Spec{}, "", nil, err
	}
	dataset, err := spec.ResolveDataset(c.Dataset)
	if err != nil {
		return Spec{}, "", nil, err
	}
	be, err := backend.New(c.Backend)
	return spec, dataset, be, err
}

// fleetDevices resolves every device config the fleet can reach, up front:
// one per declared slot, or the single shared preset. The returned func
// maps a fleet slot to its config; a slot outside a declared fleet panics.
func (c *RunConfig) fleetDevices() (func(slot int) gpu.Config, error) {
	cfgs := make([]gpu.Config, max(len(c.Devices), 1))
	for i := range cfgs {
		var err error
		if cfgs[i], err = c.DeviceConfig(i); err != nil {
			return nil, err
		}
	}
	declared := len(c.Devices) > 0
	return func(slot int) gpu.Config {
		if !declared {
			return cfgs[0]
		}
		if slot < 0 || slot >= len(cfgs) {
			panic(fmt.Sprintf("core: fleet slot %d outside the %d declared devices", slot, len(cfgs)))
		}
		return cfgs[slot]
	}, nil
}

// SlotReplicaFactory builds replica `rank` of a `world`-replica cluster on
// the device model of fleet slot `slot`. Under plain DDP slot == rank; the
// elastic plane keeps slot stable across re-sharding so a surviving
// replica stays on its own (possibly heterogeneous) device model.
type SlotReplicaFactory func(slot, rank, world int) (models.Workload, *models.Env)

// DDPSlotFactory returns the slot-aware replica builder for cfg's
// workload: the heterogeneous-fleet generalization of DDPFactory. Every
// device config the fleet can reach is validated up front, so the factory
// itself never fails.
func DDPSlotFactory(cfg RunConfig) (SlotReplicaFactory, error) {
	cfg.defaults()
	spec, dataset, be, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	slotDevice, err := cfg.fleetDevices()
	if err != nil {
		return nil, err
	}

	return func(slot, rank, world int) (models.Workload, *models.Env) {
		dev := gpu.New(slotDevice(slot))
		if cfg.OnDevice != nil {
			cfg.OnDevice(dev)
		}
		env := models.NewEnv(ops.NewWith(dev, be), cfg.Seed)
		env.Rank, env.World = rank, world
		env.Pipeline = models.PipelineConfig{
			Depth:       cfg.PipelineDepth,
			Workers:     cfg.LoaderWorkers,
			CompressH2D: cfg.CompressH2D,
		}
		w := spec.Build(env, dataset, 1)
		// Construction kernels stay on the classic path; the cluster resets
		// the device clock before training, and the timeline starts at 0.
		env.E.EnablePipeline(cfg.PipelineDepth, cfg.CompressH2D)
		return w, env
	}, nil
}

// DDPFactory returns the per-rank replica builder for cfg's workload —
// the factory RunDDP, the elastic fault harness (ddp.RunElastic), the
// goodput-under-churn study and serve-bench's replicas all share. Ranks
// map to fleet slots one-to-one (slot = rank).
func DDPFactory(cfg RunConfig) (ddp.ReplicaFactory, error) {
	slotFactory, err := DDPSlotFactory(cfg)
	if err != nil {
		return nil, err
	}
	return func(rank, world int) (models.Workload, *models.Env) {
		return slotFactory(rank, rank, world)
	}, nil
}

// ScalingWorlds returns the world sizes of a scaling series up to max:
// 1, 2, 4, ... below max, then max itself.
func ScalingWorlds(max int) []int {
	worlds := []int{1}
	for g := 2; g < max; g *= 2 {
		worlds = append(worlds, g)
	}
	if max > 1 {
		worlds = append(worlds, max)
	}
	return worlds
}

// RunDDP trains cfg.Workload with the executed DDP engine at every world
// size of ScalingWorlds(cfg.GPUs) and returns the per-world-size timeline
// with speedups against the 1-GPU run.
func RunDDP(cfg RunConfig) ([]ddp.Result, error) {
	cfg.defaults()
	factory, err := DDPFactory(cfg)
	if err != nil {
		return nil, err
	}
	return ddp.ExecutedStrongScaling(factory, ScalingWorlds(cfg.GPUs), ddp.ClusterConfig{})
}

// SuiteRun pairs a workload key with a dataset for suite-wide sweeps.
type SuiteRun struct {
	Workload string
	Dataset  string
}

// DefaultSuite returns the workload/dataset pairs the paper's figures sweep
// over: every workload on its default dataset, plus PSAGE on NWP (the
// dataset-dependence contrast of Figures 2 and 7).
func DefaultSuite() []SuiteRun {
	var out []SuiteRun
	for _, s := range registry {
		out = append(out, SuiteRun{Workload: s.Key, Dataset: s.Datasets[0]})
		if s.Key == "PSAGE" {
			out = append(out, SuiteRun{Workload: s.Key, Dataset: "NWP"})
		}
	}
	return out
}

// RunSuite characterizes every workload in the suite with shared settings.
func RunSuite(cfg RunConfig) ([]RunResult, error) {
	var out []RunResult
	for _, sr := range DefaultSuite() {
		c := cfg
		c.Workload = sr.Workload
		c.Dataset = sr.Dataset
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Label returns the display label of a run ("PSAGE(MVL)" when the workload
// has multiple datasets, otherwise just the key).
func (r RunResult) Label() string {
	spec, err := Lookup(r.Workload)
	if err == nil && len(spec.Datasets) > 1 {
		return fmt.Sprintf("%s(%s)", r.Workload, r.Dataset)
	}
	return r.Workload
}
