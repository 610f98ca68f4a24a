package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/opbench"
	"gnnmark/internal/report"
	"gnnmark/internal/serve"
)

// commands is the subcommand table in usage order. It is filled in init
// because `all` replays the table's figure entries.
var commands []command

func init() {
	commands = []command{
		{name: "run", help: "characterize one workload (-gpus N: executed multi-GPU training; -kernels: per-kernel time table)",
			flags: runCommandFlags, run: runCommand},
		{name: "all", help: "the full reproduction: Table I plus every figure",
			flags: withConfig(runFlags...), run: runAll},
		{name: "table1", help: "print the suite inventory (Table I)",
			run: func(*options, []string) { fmt.Print(bench.Table1()) }},
		suiteFigure("fig2", "execution-time breakdown by operation class", (*bench.Suite).Fig2),
		suiteFigure("fig3", "dynamic instruction mix", (*bench.Suite).Fig3),
		suiteFigure("fig4", "achieved GFLOPS/GIOPS and IPC", (*bench.Suite).Fig4),
		suiteFigure("fig5", "stall breakdown", (*bench.Suite).Fig5),
		suiteFigure("fig6", "cache hit rates and memory divergence", (*bench.Suite).Fig6),
		suiteFigure("fig7", "host-to-device transfer sparsity", (*bench.Suite).Fig7),
		suiteFigure("fig8", "transfer sparsity across training iterations", (*bench.Suite).Fig8),
		{name: "fig9", help: "multi-GPU strong-scaling study on the executed DDP engine",
			flags: withConfig(scaleFlags...), run: func(o *options, _ []string) {
				res, err := bench.Fig9(o.cfg)
				fail(err)
				fmt.Print(bench.FormatFig9(res))
			}},
		suiteFigure("figm", "per-workload device-memory footprint table", (*bench.Suite).FigM),
		{name: "figp", help: "asynchronous-input-pipeline study: sync vs overlapped epoch time (-pipeline-depth, -compress-h2d)",
			flags: func(fs *flag.FlagSet, o *options) { configFlags(fs, &o.cfg, runFlags...); obsFlags(fs, o) },
			run:   runFigP},
		{name: "figpart", help: "executed DDP vs executed graph-partitioned training: scaling, comm volume, edge-cut sweep (-gpus)",
			flags: func(fs *flag.FlagSet, o *options) {
				configFlags(fs, &o.cfg, append(runFlags, "gpus")...)
				obsFlags(fs, o)
			},
			run: runFigPart},
		{name: "figf", help: "goodput under churn: fault-injected fleet, elastic drop-and-reshard vs fail-stop replacement (-gpus, -seed)",
			flags: func(fs *flag.FlagSet, o *options) {
				configFlags(fs, &o.cfg, append(runFlags, "gpus")...)
				obsFlags(fs, o)
			},
			run: func(o *options, _ []string) {
				res, err := bench.FigF(o.cfg)
				fail(err)
				fmt.Print(bench.FormatFigF(res))
				writeObsOutputs(o.metricsOut, o.hostTrace, nil, nil)
			}},
		{name: "serve-bench", help: "Figure S: serving QPS vs tail latency across micro-batch policies and embedding-cache sizes",
			flags: serveBenchFlags, run: runServeBench},
		{name: "scenario", args: "run|check FILE...",
			help: "declarative chaos harness: execute (run) or validate (check) scenario files (see scenarios/)",
			run:  func(_ *options, args []string) { runScenario(args) }},
		{name: "opbench", help: "per-op microbenchmark sweep over workload shape classes on both backends",
			flags: func(fs *flag.FlagSet, o *options) {
				configFlags(fs, &o.cfg, "seed")
				fs.StringVar(&o.out, "out", "BENCH_opbench.json", "output path for the report")
				fs.BoolVar(&o.smoke, "smoke", false, "reduced CI sweep")
				fs.IntVar(&o.reps, "reps", 0, "timed repetitions per measurement (0 = default plan)")
				fs.StringVar(&o.backends, "backends", "", "comma-separated backend names (empty = all)")
			},
			run: runOpbench},
		{name: "benchdiff", args: "OLD.json NEW.json", help: "noise-aware comparison of two opbench reports",
			flags: func(fs *flag.FlagSet, o *options) {
				fs.Float64Var(&o.budget, "budget", 1.10, "regression budget as a median ratio (1.10 = fail beyond +10%)")
				fs.Float64Var(&o.madK, "mad-k", 4, "significance bar in combined MADs")
				fs.BoolVar(&o.warnOnly, "warn-only", false, "report regressions without failing (coverage/schema drift still fails)")
			},
			run: runBenchdiff},
		{name: "infer", help: "training-vs-inference op-mix contrast (-workload)",
			flags: withConfig(append(runFlags, "workload", "dataset")...), run: func(o *options, _ []string) {
				train, inf, err := bench.InferenceContrast(o.cfg)
				fail(err)
				fmt.Print(bench.FormatInference(o.cfg.Workload, train, inf))
			}},
		{name: "dnn-contrast", help: "GNN suite vs conventional-CNN baseline",
			flags: withConfig(runFlags...), run: func(o *options, _ []string) {
				fmt.Print(bench.FormatContrast(characterize(o.cfg), bench.DNNBaseline(o.cfg)))
			}},
		{name: "weakscale", help: "fixed-per-GPU-batch scaling study on the executed DDP engine (-workload)",
			flags: withConfig(append(scaleFlags, "workload")...), run: func(o *options, _ []string) {
				res, err := bench.WeakScaling(o.cfg.Workload, o.cfg)
				fail(err)
				fmt.Print(bench.FormatWeakScaling(o.cfg.Workload, res))
			}},
		{name: "ablate-fp16", help: "half-precision storage ablation",
			flags: withConfig(runFlags...), run: ablateFP16},
		{name: "ablate-l1bypass", help: "L1 cache bypass ablation",
			flags: withConfig(runFlags...), run: ablateL1Bypass},
		{name: "gpucompare", help: "characterize one workload on P100/V100/A100 (-workload)",
			flags: withConfig("epochs", "seed", "warps", "hbm-gb", "backend",
				"pipeline-depth", "loader-workers", "compress-h2d", "workload"),
			run: func(o *options, _ []string) {
				reports, err := bench.GPUCompare(o.cfg)
				fail(err)
				fmt.Print(bench.FormatGPUCompare(o.cfg.Workload, reports))
			}},
		{name: "ttt", help: "MLPerf-style time-to-train (-workload, -target, -max-epochs)",
			flags: func(fs *flag.FlagSet, o *options) {
				configFlags(fs, &o.cfg, "seed", "warps", "gpu", "backend", "workload", "dataset")
				fs.Float64Var(&o.target, "target", 0.5, "loss target")
				fs.IntVar(&o.maxEpochs, "max-epochs", 50, "epoch cutoff")
			},
			run: runTTT},
		{name: "roofline", help: "per-operation roofline placement (-workload, -gpu)",
			flags: withConfig(append(runFlags, "workload", "dataset")...), run: func(o *options, _ []string) {
				r, err := core.Run(o.cfg)
				fail(err)
				devCfg, err := gpu.Preset(o.cfg.GPU)
				fail(err)
				fmt.Print(bench.FormatRoofline(r.Label(), bench.Roofline(r, devCfg), devCfg))
			}},
		{name: "sweep", help: "hyperparameter sweep (-sweep WORKLOAD/param -values a,b,c)",
			flags: func(fs *flag.FlagSet, o *options) {
				configFlags(fs, &o.cfg, "epochs", "seed", "warps")
				fs.StringVar(&o.sweepKey, "sweep", "DGCN/layers", "sweep key: WORKLOAD/param")
				fs.StringVar(&o.sweepVals, "values", "4,14,28", "comma-separated sweep values")
			},
			run: func(o *options, _ []string) {
				points, err := bench.Sweep(o.sweepKey, parseInts(o.sweepVals), o.cfg)
				fail(err)
				fmt.Print(bench.FormatSweep(o.sweepKey, points))
			}},
		{name: "report", help: "write the full characterization as an HTML page (-trace sets the path)",
			flags: func(fs *flag.FlagSet, o *options) {
				configFlags(fs, &o.cfg, runFlags...)
				fs.StringVar(&o.traceOut, "trace", "gnnmark-report.html", "HTML output path")
			},
			run: runReport},
		{name: "datasets", help: "structural statistics of every synthetic dataset",
			flags: withConfig("seed"), run: func(o *options, _ []string) { fmt.Print(bench.DatasetInventory(o.cfg.Seed)) }},
		{name: "params", help: "per-workload parameter and iteration counts",
			flags: withConfig("seed"), run: func(o *options, _ []string) { fmt.Print(bench.ModelInventory(o.cfg.Seed)) }},
	}
}

// suiteFigure is the table entry of one figure of the suite
// characterization.
func suiteFigure(name, help string, render func(*bench.Suite) string) command {
	return command{name: name, help: help, flags: withConfig(runFlags...), figure: render,
		run: func(o *options, _ []string) { fmt.Print(render(characterize(o.cfg))) }}
}

func characterize(cfg core.RunConfig) *bench.Suite {
	s, err := bench.Characterize(cfg)
	fail(err)
	return s
}

// runAll prints Table I, every suite figure in table order, and Figure 9.
func runAll(o *options, _ []string) {
	fmt.Print(bench.Table1())
	fmt.Println()
	s := characterize(o.cfg)
	for _, c := range commands {
		if c.figure != nil {
			fmt.Print(c.figure(s))
			fmt.Println()
		}
	}
	res, err := bench.Fig9(o.cfg)
	fail(err)
	fmt.Print(bench.FormatFig9(res))
}

func runReport(o *options, _ []string) {
	s := characterize(o.cfg)
	res, err := bench.Fig9(o.cfg)
	fail(err)
	f, err := os.Create(o.traceOut)
	fail(err)
	fail(report.WriteHTML(f, s, res))
	fail(f.Close())
	fmt.Println("wrote", o.traceOut)
}

func runFigP(o *options, _ []string) {
	cfg := o.cfg
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 4
	}
	res, err := bench.FigP(cfg)
	fail(err)
	fmt.Print(bench.FormatFigP(res, cfg.PipelineDepth, cfg.CompressH2D))
	writeObsOutputs(o.metricsOut, o.hostTrace, nil, nil)
}

func runFigPart(o *options, _ []string) {
	cfg := o.cfg
	if cfg.GPUs <= 1 {
		cfg.GPUs = 4
	}
	res, err := bench.FigPart(cfg)
	fail(err)
	fmt.Print(bench.FormatFigPart(res))
	writeObsOutputs(o.metricsOut, o.hostTrace, nil, nil)
}

func runTTT(o *options, _ []string) {
	res, err := core.TimeToTrain(o.cfg, o.target, o.maxEpochs)
	fail(err)
	status := "converged"
	if !res.Converged {
		status = "cutoff"
	}
	fmt.Printf("%s time-to-train(loss<=%.3f): %d epochs, %.3f ms simulated GPU time (%s)\n",
		res.Workload, res.TargetLoss, res.Epochs, 1e3*res.SimSeconds, status)
	fmt.Printf("loss curve: %.4v\n", res.LossCurve)
}

func serveBenchFlags(fs *flag.FlagSet, o *options) {
	configFlags(fs, &o.cfg, "epochs", "seed", "warps", "gpu", "backend", "dataset")
	fs.StringVar(&o.cfg.Workload, "workload", "PSAGE", "servable workload key (PSAGE or ARGA)")
	fs.IntVar(&o.serve.Replicas, "replicas", 2, "frozen-replica count, one simulated device each")
	fs.Float64Var(&o.serve.QPS, "serve-qps", 0, "offered open-loop arrival rate (0 = 4x the measured batch-1 capacity)")
	fs.Float64Var(&o.serve.Duration, "serve-duration", 0, "arrival-trace horizon in simulated seconds (0 = 400 batch-1 service times)")
	fs.Float64Var(&o.maxWaitUS, "max-wait-us", 0, "micro-batching window in microseconds (0 = one batch-1 service time)")
	fs.IntVar(&o.serve.QueueCap, "queue-cap", 64, "admission-queue bound; arrivals beyond it are rejected (negative = unbounded)")
	fs.StringVar(&o.batches, "batches", "1,4,16", "comma-separated MaxBatch policy arms")
	fs.StringVar(&o.cacheRows, "cache-rows", "0,1024", "comma-separated embedding-cache sizes in rows (0 = no cache)")
	fs.StringVar(&o.arrivals, "arrivals", "", "replay this arrival-trace file (\"<timestamp_us> <item>\" lines) instead of generating one")
	fs.BoolVar(&o.smoke, "smoke", false, "single low-load arm asserting nonzero QPS and zero rejects")
	obsFlags(fs, o)
}

func runServeBench(o *options, _ []string) {
	scfg := o.serve
	scfg.Run = o.cfg
	scfg.MaxWaitSeconds = o.maxWaitUS * 1e-6
	scfg.Batches, scfg.CacheRows = parseInts(o.batches), parseInts(o.cacheRows)
	if o.arrivals != "" {
		f, err := os.Open(o.arrivals)
		fail(err)
		reqs, err := serve.ParseArrivalTrace(f)
		f.Close()
		fail(err)
		scfg.Arrivals = reqs
	}
	if o.smoke {
		// One low-load arm on a reduced device model: a healthy endpoint
		// must complete requests and reject nothing.
		scfg.Run.Epochs = 1
		scfg.Run.SampledWarps = 256
		scfg.Replicas = 1
		scfg.LoadFactor = 0.5
		scfg.Batches = []int{8}
		scfg.CacheRows = []int{256}
	}
	res, err := bench.FigS(scfg)
	fail(err)
	fmt.Print(bench.FormatFigS(res))
	if o.smoke {
		for _, row := range res.Rows {
			if row.Stats.QPS <= 0 {
				fail(fmt.Errorf("serve-bench smoke: arm b%d/c%d served zero QPS",
					row.MaxBatch, row.CacheRows))
			}
			if row.Stats.Rejected > 0 {
				fail(fmt.Errorf("serve-bench smoke: arm b%d/c%d rejected %d requests at low load",
					row.MaxBatch, row.CacheRows, row.Stats.Rejected))
			}
		}
		fmt.Println("serve-bench smoke: ok — nonzero QPS, zero rejects at low load")
	}
	writeObsOutputs(o.metricsOut, o.hostTrace, nil, nil)
}

// ablateL1Bypass compares every workload with and without the L1 data
// cache: the paper's suggested bypass mitigation.
func ablateL1Bypass(o *options, _ []string) {
	fmt.Println("L1-bypass ablation: simulated kernel seconds per run")
	fmt.Printf("%-12s %12s %12s %10s\n", "workload", "with L1", "bypassed", "delta")
	for _, sr := range core.DefaultSuite() {
		c := o.cfg
		c.Workload, c.Dataset = sr.Workload, sr.Dataset
		normal, bypassed, err := bench.L1BypassAblation(c)
		fail(err)
		fmt.Printf("%-12s %12.5f %12.5f %+9.1f%%\n", labelOf(sr), normal, bypassed,
			100*(bypassed-normal)/normal)
	}
}

// ablateFP16 compares fp32 and fp16 storage modes per workload: the paper's
// half-precision future-work item.
func ablateFP16(o *options, _ []string) {
	fmt.Println("fp16 ablation: simulated kernel seconds per epoch (fp32 vs fp16)")
	fmt.Printf("%-12s %12s %12s %8s\n", "workload", "fp32 (s)", "fp16 (s)", "speedup")
	for _, sr := range core.DefaultSuite() {
		c := o.cfg
		c.Workload, c.Dataset = sr.Workload, sr.Dataset
		base, half, err := bench.Ablate(c, func(c *core.RunConfig) { c.HalfPrecision = true })
		fail(err)
		b := base.Report.KernelSeconds
		h := half.Report.KernelSeconds
		fmt.Printf("%-12s %12.5f %12.5f %7.2fx\n", base.Label(), b, h, b/h)
	}
}

func labelOf(sr core.SuiteRun) string {
	if sr.Workload == "PSAGE" {
		return sr.Workload + "(" + sr.Dataset + ")"
	}
	return sr.Workload
}

// runOpbench executes the per-op microbenchmark sweep and writes the
// BENCH_opbench.json trajectory point. Progress goes to stderr so the
// artifact path on stdout stays scriptable.
func runOpbench(o *options, _ []string) {
	cfg := opbench.Config{
		Smoke: o.smoke,
		Reps:  o.reps,
		Seed:  o.cfg.Seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if o.backends != "" {
		for _, b := range strings.Split(o.backends, ",") {
			cfg.Backends = append(cfg.Backends, strings.TrimSpace(b))
		}
	}
	rep, err := opbench.Run(cfg)
	fail(err)
	fail(rep.WriteFile(o.out))
	mode := "full"
	if o.smoke {
		mode = "smoke"
	}
	fmt.Printf("wrote %d measurements (%s sweep) to %s\n", len(rep.Results), mode, o.out)
}

// runBenchdiff compares two opbench reports and renders the benchstat-style
// table. Exit codes: 2 for schema or shape-coverage drift (always fatal),
// 1 for a regression beyond the budget (suppressed by -warn-only), 0
// otherwise. Flags must precede the two positional report paths.
func runBenchdiff(o *options, paths []string) {
	if len(paths) != 2 {
		usageError("benchdiff wants two report paths: OLD.json NEW.json")
	}
	old, err := opbench.ReadFile(paths[0])
	if err != nil {
		usageError("%v", err)
	}
	cur, err := opbench.ReadFile(paths[1])
	if err != nil {
		usageError("%v", err)
	}
	d, err := opbench.Compare(old, cur, opbench.DiffConfig{Budget: o.budget, MADK: o.madK})
	if err != nil {
		usageError("%v", err)
	}
	fmt.Print(d.Markdown())
	if d.CoverageDrift() {
		usageError("shape coverage drift — the new report is missing required measurements")
	}
	if d.Regressions > 0 && !o.warnOnly {
		os.Exit(1)
	}
}

// parseInts parses a comma-separated integer list (sweep arms and the like).
func parseInts(s string) []int {
	var vals []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		fail(err)
		vals = append(vals, v)
	}
	return vals
}
