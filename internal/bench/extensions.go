package bench

import (
	"fmt"
	"slices"
	"strings"

	"gnnmark/internal/backend"
	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/profiler"
)

// DNNBaseline trains the conventional-CNN comparator under the same
// profiler and returns its report: the DNN side of the paper's "GNN
// training differs greatly from a typical DNN" contrast.
func DNNBaseline(cfg core.RunConfig) profiler.Report {
	env := v100Env(cfg, backend.Default())
	prof := profiler.Attach(env.E.Device())
	env.OnIteration = prof.NextIteration
	m := models.NewDNN(env, models.DNNConfig{})
	prof.Reset()
	epochs := cfg.Epochs
	if epochs == 0 {
		epochs = 2
	}
	for e := 0; e < epochs; e++ {
		m.TrainEpoch()
	}
	return prof.Snapshot()
}

// FormatContrast renders the GNN-suite-vs-DNN operation-mix comparison.
func FormatContrast(suite *Suite, dnn profiler.Report) string {
	a := suite.Averages()
	var b strings.Builder
	b.WriteString("GNN suite vs conventional DNN (CNN baseline):\n")
	fmt.Fprintf(&b, "%-28s %12s %12s\n", "", "GNN suite", "DNN")
	fmt.Fprintf(&b, "%-28s %11.1f%% %11.1f%%\n", "GEMM+SpMM+Conv time share",
		100*(a.GEMMSpMMShare+convShare(suite)),
		100*(dnn.TimeShare[gpu.OpGEMM]+dnn.TimeShare[gpu.OpSpMM]+dnn.TimeShare[gpu.OpConv]))
	fmt.Fprintf(&b, "%-28s %11.1f%% %11.1f%%\n", "graph-op time share",
		100*a.GraphOpShare, 100*dnn.GraphOpTimeShare())
	fmt.Fprintf(&b, "%-28s %11.1f%% %11.1f%%\n", "int32 instruction share",
		100*a.IntShare, 100*dnn.IntShare)
	b.WriteString("\nGNN training spreads time across aggregation/indexing kernels a\n")
	b.WriteString("GEMM-only accelerator would not touch (paper Section V-A takeaway).\n")
	return b.String()
}

func convShare(s *Suite) float64 {
	var sum float64
	for _, r := range s.Results {
		sum += r.Report.TimeShare[gpu.OpConv]
	}
	return sum / float64(len(s.Results))
}

// InferenceContrast characterizes one workload in training and in
// forward-only (inference) mode and returns both reports: the paper's
// future-work inference study, and its observation that training's op mix
// differs from inference's (where GEMM dominates more).
func InferenceContrast(cfg core.RunConfig) (train, infer profiler.Report, err error) {
	cfg.ForwardOnly = false
	rt, ri, err := Ablate(cfg, func(c *core.RunConfig) { c.ForwardOnly = true })
	return rt.Report, ri.Report, err
}

// Ablate runs cfg twice, as given and then with set applied, and returns
// both results: the shape of every on/off study (inference, L1 bypass,
// fp16 storage).
func Ablate(cfg core.RunConfig, set func(*core.RunConfig)) (base, varied core.RunResult, err error) {
	if base, err = core.Run(cfg); err != nil {
		return base, varied, err
	}
	set(&cfg)
	varied, err = core.Run(cfg)
	return base, varied, err
}

// FormatInference renders the training-vs-inference comparison for one
// workload.
func FormatInference(workload string, train, infer profiler.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: training vs inference (forward-only) op mix\n", workload)
	fmt.Fprintf(&b, "%-24s %10s %10s\n", "", "train", "infer")
	fmt.Fprintf(&b, "%-24s %9.1f%% %9.1f%%\n", "GEMM+SpMM share",
		100*train.GEMMSpMMTimeShare(), 100*infer.GEMMSpMMTimeShare())
	fmt.Fprintf(&b, "%-24s %9.1f%% %9.1f%%\n", "element-wise share",
		100*train.TimeShare[gpu.OpElementWise], 100*infer.TimeShare[gpu.OpElementWise])
	fmt.Fprintf(&b, "%-24s %10d %10d\n", "kernels", train.Kernels, infer.Kernels)
	fmt.Fprintf(&b, "%-24s %9.3f %9.3f\n", "kernel ms", 1e3*train.KernelSeconds, 1e3*infer.KernelSeconds)
	return b.String()
}

// L1BypassAblation runs a workload with and without the L1 data cache: the
// paper's suggested mitigation for GNNs' very low L1 hit rates. Returns
// (normal, bypassed) kernel seconds.
func L1BypassAblation(cfg core.RunConfig) (normal, bypassed float64, err error) {
	cfg.BypassL1 = false
	rn, rb, err := Ablate(cfg, func(c *core.RunConfig) { c.BypassL1 = true })
	return rn.Report.KernelSeconds, rb.Report.KernelSeconds, err
}

// WeakScaling runs the paper's future-work weak-scaling study (fixed
// per-GPU batch) for one scalable workload on the executed cluster: every
// replica is built at World 1, so it trains the full per-GPU batch while
// still really ring-allreducing its gradients with the others. Compute
// stays flat; efficiency (Result.Speedup) decays through communication.
func WeakScaling(workload string, cfg core.RunConfig) ([]ddp.Result, error) {
	if !slices.Contains(Fig9Workloads, workload) {
		return nil, fmt.Errorf("bench: workload %q not in the scaling study set %v", workload, Fig9Workloads)
	}
	be, err := backend.New(cfg.Backend)
	if err != nil {
		return nil, err
	}
	factory := func(int, int) (models.Workload, *models.Env) {
		env := v100Env(cfg, be) // World stays 1: no batch sharding
		return fig9Build(workload, env), env
	}
	return ddp.ExecutedStrongScaling(factory, []int{1, 2, 4}, ddp.ClusterConfig{})
}

// FormatStrongScaling renders an executed strong-scaling series for one
// workload (the `run -gpus N` view).
func FormatStrongScaling(workload string, results []ddp.Result) string {
	return formatScaling(workload+" executed DDP strong scaling (global batch fixed)", "speedup", results)
}

// FormatWeakScaling renders an executed weak-scaling series.
func FormatWeakScaling(workload string, results []ddp.Result) string {
	return formatScaling(workload+" weak scaling (fixed per-GPU batch; ideal efficiency 1.0)", "efficiency", results)
}

// formatScaling renders one line per world size: the epoch timeline split
// into compute and exposed/hidden communication, then the ratio to 1 GPU.
func formatScaling(title, ratio string, results []ddp.Result) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, r := range results {
		note := ""
		if r.Replicated {
			note = "  [replicated: sampler not DDP-compatible]"
		}
		fmt.Fprintf(&b, "  %d GPU: epoch %.3f ms = compute %.3f + exposed comm %.3f (%.3f hidden, %d buckets)  %s %.2fx%s\n",
			r.GPUs, 1e3*r.EpochSeconds, 1e3*r.ComputeSeconds,
			1e3*r.ExposedCommSeconds, 1e3*r.OverlappedCommSeconds, r.Buckets, ratio, r.Speedup, note)
	}
	return b.String()
}

// GPUCompare characterizes one workload across GPU generations and returns
// the per-preset reports in (p100, v100, a100) order: a sensitivity study
// of the paper's V100 findings.
func GPUCompare(cfg core.RunConfig) (map[string]profiler.Report, error) {
	out := map[string]profiler.Report{}
	for _, g := range []string{"p100", "v100", "a100"} {
		c := cfg
		c.GPU = g
		r, err := core.Run(c)
		if err != nil {
			return nil, err
		}
		out[g] = r.Report
	}
	return out, nil
}

// FormatGPUCompare renders the cross-generation comparison.
func FormatGPUCompare(workload string, reports map[string]profiler.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s across GPU generations\n", workload)
	fmt.Fprintf(&b, "%-8s %12s %10s %8s %8s\n", "gpu", "kernel ms", "GFLOPS", "L1", "L2")
	for _, g := range []string{"p100", "v100", "a100"} {
		r := reports[g]
		fmt.Fprintf(&b, "%-8s %12.4f %10.0f %7.1f%% %7.1f%%\n",
			g, 1e3*r.KernelSeconds, r.GFLOPS, 100*r.L1HitRate, 100*r.L2HitRate)
	}
	return b.String()
}
