package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/stream"
	"gnnmark/internal/trace"
	"gnnmark/internal/vmem"
)

func runCommandFlags(fs *flag.FlagSet, o *options) {
	configFlags(fs, &o.cfg, append(runFlags, "workload", "dataset", "gpus", "parallelism", "overlap")...)
	fs.StringVar(&o.traceOut, "trace", "", "write the device kernel timeline, construction included, as chrome://tracing JSON to this file (single device)")
	fs.BoolVar(&o.kernels, "kernels", false, "print simulated time per kernel name over the training epochs, construction excluded (single device)")
	obsFlags(fs, o)
}

// runCommand trains one workload: on one simulated device through core.Run,
// or on -gpus N devices through the executed DDP or partitioned plane.
func runCommand(o *options, _ []string) {
	cfg := o.cfg
	if cfg.GPUs > 1 {
		if o.traceOut != "" || o.kernels {
			usageError("run: -trace and -kernels record one device; drop -gpus %d", cfg.GPUs)
		}
		runMultiGPU(o)
		return
	}
	// Device-side recorders attach before any kernel launches.
	var rec *trace.Recorder
	var kernels *kernelTable
	if o.traceOut != "" || o.hostTrace != "" || o.kernels {
		cfg.OnDevice = func(dev *gpu.Device) {
			if o.traceOut != "" || o.hostTrace != "" {
				rec = trace.Attach(dev, 0)
			}
			if o.kernels {
				kernels = attachKernelTable(dev)
			}
		}
	}
	r, err := core.Run(cfg)
	fail(err)
	fmt.Printf("%s on %s: %d params, losses %v\n", r.Workload, r.Dataset, r.ParamCount, r.Losses)
	fmt.Printf("epoch seconds (simulated): %v\n", r.EpochSeconds)
	fmt.Printf("device memory: peak live %s, reserved %s, %d allocs (%.1f%% reused, %.1f%% fragmentation)\n",
		vmem.FormatBytes(r.Mem.PeakLive), vmem.FormatBytes(r.Mem.PeakReserved),
		r.Mem.Allocs, 100*r.Mem.ReuseRate(), 100*r.Mem.PeakFragmentation())
	for i, hp := range r.HostPhases {
		line := fmt.Sprintf("obs epoch %d: %s", i+1, hp)
		if i < len(r.Pipe) {
			line += ", " + pipeSummary(r.Pipe[i])
		}
		fmt.Println(line)
		if i < len(r.HostOpClasses) {
			fmt.Printf("obs epoch %d op classes: %s\n", i+1, r.HostOpClasses[i].Summary(hp.PhaseNanos()))
		}
	}
	if len(r.HostPhases) == 0 {
		// Without host observability the pipeline stats still print.
		for i, pe := range r.Pipe {
			fmt.Printf("pipeline epoch %d: %s\n", i+1, pipeSummary(pe))
		}
	}
	fmt.Print(r.Report.String())
	if kernels != nil {
		fmt.Print(kernels)
	}
	if o.traceOut != "" {
		writeDeviceTrace(o.traceOut, r, rec)
	}
	writeObsOutputs(o.metricsOut, o.hostTrace, rec, r.StreamLanes)
}

// runMultiGPU is `run -gpus N`: the executed partitioned plane or the
// executed DDP strong-scaling series up to N devices.
func runMultiGPU(o *options) {
	if o.cfg.Parallelism == "partitioned" {
		res, err := core.RunPartitioned(o.cfg)
		fail(err)
		fmt.Print(bench.FormatPartitionedRun(o.cfg.Workload, res))
		// Halo-exchange lanes render as named threads beside the host
		// spans: one "gpuN compute" / "gpuN halo" pair per rank.
		writeObsOutputs(o.metricsOut, o.hostTrace, nil, rankLanes(res.Lanes))
		return
	}
	res, err := core.RunDDP(o.cfg)
	fail(err)
	fmt.Print(bench.FormatStrongScaling(o.cfg.Workload, res))
	for _, r := range res {
		for i, hp := range r.HostPhases {
			fmt.Printf("obs %d-gpu epoch %d: %s\n", r.GPUs, i+1, hp)
		}
	}
	writeObsOutputs(o.metricsOut, o.hostTrace, nil, nil)
}

// kernelTable totals simulated kernel time per "class name" key on one
// device: the calibration view behind `run -kernels`. It restarts whenever
// the device clock does; core.Run resets the clock once the workload is
// built, so construction-time kernels stay out of the table.
type kernelTable struct {
	seconds map[string]float64
	count   map[string]int
}

func attachKernelTable(dev *gpu.Device) *kernelTable {
	t := &kernelTable{seconds: map[string]float64{}, count: map[string]int{}}
	dev.Subscribe(func(ks gpu.KernelStats) {
		if dev.KernelCount() == 1 { // first launch since a clock reset
			clear(t.seconds)
			clear(t.count)
		}
		k := fmt.Sprintf("%-12s %s", ks.Class, ks.Name)
		t.seconds[k] += ks.Seconds
		t.count[k]++
	})
	return t
}

// String renders the table heaviest kernel first, as shares of the total.
func (t *kernelTable) String() string {
	keys := make([]string, 0, len(t.seconds))
	for k := range t.seconds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if a, b := t.seconds[keys[i]], t.seconds[keys[j]]; a != b {
			return a > b
		}
		return keys[i] < keys[j]
	})
	total := 0.0
	for _, k := range keys {
		total += t.seconds[k]
	}
	var b strings.Builder
	b.WriteString("per-kernel simulated time (training epochs):\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%7.2f%% %9.1fus n=%-5d %s\n", 100*t.seconds[k]/total, 1e6*t.seconds[k], t.count[k], k)
	}
	return b.String()
}

// writeDeviceTrace writes the device timeline recorded since construction.
// The input pipeline's stream lanes start with training, so they shift by
// the construction time to line up with the device rows above them.
func writeDeviceTrace(path string, r core.RunResult, rec *trace.Recorder) {
	events := rec.TimelineEvents()
	if len(r.StreamLanes) > 0 {
		lanes := make([]stream.Lane, len(r.StreamLanes))
		for i, l := range r.StreamLanes {
			l.Slices = append([]stream.Slice(nil), l.Slices...)
			for j := range l.Slices {
				l.Slices[j].Start += r.SetupSeconds
			}
			lanes[i] = l
		}
		events = append(events, trace.StreamLaneEvents(lanes)...)
	}
	writeEvents(path, events)
	fmt.Printf("%s: wrote %d timeline events to %s (open in chrome://tracing)\n",
		r.Workload, len(events), path)
}

// writeEvents writes a Chrome trace-event document to path.
func writeEvents(path string, events []trace.Event) {
	f, err := os.Create(path)
	fail(err)
	fail(trace.WriteEvents(f, events))
	fail(f.Close())
}

// pipeSummary renders one epoch's input-pipeline accounting: overlapped vs
// serialized epoch time, the copy-engine overlap fraction, and the raw vs
// wire H2D payload.
func pipeSummary(pe ops.PipeEpoch) string {
	return fmt.Sprintf("pipeline %.3fms vs sync %.3fms (%.2fx), overlap %.1f%%, h2d raw %s wire %s (%.2fx)",
		1e3*pe.PipeSeconds, 1e3*pe.SyncSeconds, pe.Speedup(), 100*pe.OverlapFraction(),
		vmem.FormatBytes(int64(pe.RawBytes)), vmem.FormatBytes(int64(pe.WireBytes())), pe.CompressionRatio())
}

// writeObsOutputs writes the host-observability artifacts requested on the
// command line: the metrics JSON snapshot and the merged host+device
// Chrome trace (host spans as a second process beside the device rows,
// stream lanes as extra named threads under the device process).
func writeObsOutputs(metricsPath, tracePath string, rec *trace.Recorder, lanes []stream.Lane) {
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		fail(err)
		fail(obs.WriteMetricsJSON(f))
		fail(f.Close())
		fmt.Println("wrote host metrics to", metricsPath)
	}
	if tracePath != "" {
		events := trace.HostEvents()
		if len(lanes) > 0 {
			events = append(trace.StreamLaneEvents(lanes), events...)
		}
		dropped := 0
		if rec != nil {
			events = append(rec.TimelineEvents(), events...)
			dropped = rec.Dropped()
		}
		writeEvents(tracePath, events)
		fmt.Printf("wrote %d merged host+device trace events to %s (open in chrome://tracing)\n",
			len(events), tracePath)
		if dropped > 0 {
			fmt.Printf("note: %d device events dropped at the recorder limit\n", dropped)
		}
	}
}

// rankLanes flattens per-rank stream lanes into one list with rank-prefixed
// names, so every simulated GPU's compute and halo streams appear as their
// own named threads in the Chrome trace.
func rankLanes(lanes [][]stream.Lane) []stream.Lane {
	var out []stream.Lane
	for r, ls := range lanes {
		for _, l := range ls {
			l.Name = fmt.Sprintf("gpu%d %s", r, l.Name)
			out = append(out, l)
		}
	}
	return out
}
