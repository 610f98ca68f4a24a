// Command gnnmark runs the GNNMark suite reproduction: it trains the eight
// GNN workloads on a simulated V100, collects the paper's characterization
// metrics, and prints every table and figure of the evaluation.
//
// Usage:
//
//	gnnmark <command> [flags] [args]
//	gnnmark <command> -h          # the flags that command reads
//
// Every subcommand is one entry of the commands table (commands.go): its
// name, a one-line help, the flags it reads, and its run function. A flag
// the command does not read is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/obs"
)

// command is one gnnmark subcommand.
type command struct {
	name string
	// args is the synopsis of the positional arguments; empty means the
	// command takes none.
	args string
	help string
	// flags registers exactly the flags the command reads, bound to o.
	flags func(fs *flag.FlagSet, o *options)
	run   func(o *options, args []string)
	// figure, set on the one-figure characterization commands, renders
	// that figure from a characterized suite (`all` replays them).
	figure func(s *bench.Suite) string
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == os.Args[1] })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "gnnmark: unknown command %q\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	c := commands[i]
	fs := flag.NewFlagSet(c.name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: gnnmark %s [flags] %s\n%s\n", c.name, c.args, c.help)
		fs.PrintDefaults()
	}
	o := &options{}
	if c.flags != nil {
		c.flags(fs, o)
	}
	fs.Parse(os.Args[2:]) // ExitOnError: an unknown flag exits 2
	if c.args == "" && fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "gnnmark %s: unexpected argument %q\n", c.name, fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}
	if o.metricsOut != "" || o.hostTrace != "" {
		obs.Enable()
	}
	c.run(o, fs.Args())
}

// options holds every flag value any command reads. Each command's flags
// func registers only the fields that command uses.
type options struct {
	cfg   core.RunConfig
	serve bench.ServeConfig // serve-bench; Run is filled from cfg

	traceOut              string // run: device timeline path; report: HTML path
	metricsOut, hostTrace string
	kernels, smoke        bool

	target              float64
	maxEpochs, reps     int
	sweepKey, sweepVals string
	out, backends       string

	budget, madK float64
	warnOnly     bool

	maxWaitUS                    float64
	batches, cacheRows, arrivals string
}

// runFlags are the core.RunConfig fields core.Run reads: the flag set of
// every command that characterizes workloads through it.
var runFlags = []string{"epochs", "seed", "warps", "gpu", "hbm-gb", "backend",
	"pipeline-depth", "loader-workers", "compress-h2d"}

// scaleFlags are the fields the fixed-V100 scaling studies (fig9,
// weakscale) read.
var scaleFlags = []string{"seed", "warps", "backend"}

// configFlags registers the named core.RunConfig flags on fs, bound to cfg:
// the one place a RunConfig flag's name, default and help are defined.
func configFlags(fs *flag.FlagSet, cfg *core.RunConfig, names ...string) {
	for _, n := range names {
		switch n {
		case "epochs":
			fs.IntVar(&cfg.Epochs, n, 3, "training epochs per workload")
		case "seed":
			fs.Int64Var(&cfg.Seed, n, 1, "random seed")
		case "warps":
			fs.IntVar(&cfg.SampledWarps, n, 4096, "max sampled warps per kernel (model fidelity/speed)")
		case "gpu":
			fs.StringVar(&cfg.GPU, n, "v100", "device preset: v100, p100, a100, h100")
		case "hbm-gb":
			fs.Float64Var(&cfg.HBMGB, n, 0, "simulated device-memory budget in GiB (0 = GPU preset capacity; too small fails with a simulated OOM report)")
		case "backend":
			fs.StringVar(&cfg.Backend, n, "serial", "CPU numerics backend: serial or parallel (identical results; parallel is faster on large workloads)")
		case "pipeline-depth":
			fs.IntVar(&cfg.PipelineDepth, n, 0, "asynchronous input pipeline prefetch depth (0 = synchronous loading; numerics are identical either way)")
		case "loader-workers":
			fs.IntVar(&cfg.LoaderWorkers, n, 0, "input-loader worker goroutines (0 = default; affects host scheduling only)")
		case "compress-h2d":
			fs.BoolVar(&cfg.CompressH2D, n, false, "time H2D copies on sparsity-encoded bytes (zero-run/bitmap codec); requires -pipeline-depth > 0")
		case "workload":
			fs.StringVar(&cfg.Workload, n, "ARGA", "workload key")
		case "dataset":
			fs.StringVar(&cfg.Dataset, n, "", "dataset name (empty = the workload's default)")
		case "gpus":
			fs.IntVar(&cfg.GPUs, n, 1, "simulated GPU count (>1 trains replicas with bucketed ring-allreduce)")
		case "parallelism":
			fs.StringVar(&cfg.Parallelism, n, "ddp", "multi-GPU execution plane: ddp (replicated model, sharded batches) or partitioned (one graph partition per GPU with halo exchange; ARGA and DGCN only)")
		case "overlap":
			fs.BoolVar(&cfg.Overlap, n, true, "overlap halo exchange with interior compute (partitioned plane; false serializes every exchange)")
		default:
			panic("gnnmark: no RunConfig flag " + n)
		}
	}
}

// withConfig is the flags func of a command that reads only RunConfig
// fields.
func withConfig(names ...string) func(*flag.FlagSet, *options) {
	return func(fs *flag.FlagSet, o *options) { configFlags(fs, &o.cfg, names...) }
}

// obsFlags registers the host-observability outputs.
func obsFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the host-observability metrics snapshot (JSON) to this file")
	fs.StringVar(&o.hostTrace, "host-trace", "", "write a merged host+device chrome://tracing timeline to this file")
}

// usage lists every command with its one-line help.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: gnnmark <command> [flags]")
	fmt.Fprintln(w, "commands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-16s %s\n", c.name, c.help)
	}
	fmt.Fprintln(w, `"gnnmark <command> -h" lists the flags that command reads`)
}

// usageError reports a fault in the invocation or its inputs, which the
// caller must fix, with exit status 2; fail's status 1 is for a run that
// went wrong.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gnnmark: "+format+"\n", args...)
	os.Exit(2)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnmark:", err)
		os.Exit(1)
	}
}
