// Command hostbench is the host-time training benchmark: it trains one of
// four workloads through the public entry point of each layer (gpu.New,
// profiler.Attach, ops.NewWith, models.NewEnv, core.Spec.Build,
// Workload.TrainEpoch) with core.Run's per-epoch bookkeeping, checks the
// outputs, and prints end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1). README.md explains the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash hostbench/run.sh --workload tlstm --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for the workload's inputs and initial weights")
	seconds := flag.Float64("seconds", 30, "seconds of timed epochs to measure (at least 3 epochs run)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	writeRef := flag.String("write-reference", "", "train every workload at the committed seeds, write the reference to this file and exit")
	flag.Parse()

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "hostbench: need --workload (%s), --trace 0|1 and --seconds >= 0\n", workloadNames())
		os.Exit(2)
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}

	env := environment()
	stamp, _ := json.Marshal(env) // plain struct of strings and ints
	fmt.Printf("env %s\n", stamp)
	fmt.Printf("workload %s, seed %d, trace %d: %s\n", wl.name, *seed, *trace, wl.why)

	res := run(wl, *seed, *seconds, *trace == 1, ref, filepath.Join(outDir, "seen"))

	var metrics []named
	if *trace == 1 {
		metrics = res.perLayer()
		path := filepath.Join(outDir, wl.name+".spans.tsv")
		if err := writeSpans(path, res.rec, env, wl, *seed); err != nil {
			res.note("write spans", err.Error())
		} else {
			fmt.Printf("spans: %d written to %s\n", len(res.rec.spans), path)
		}
	} else {
		metrics = res.endToEnd()
	}
	printSummary(res, metrics, wl, *seed, ref)

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && len(res.epochs) >= refEpochs, res.attempted, res.failed, map[string]metric{}}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run that failed leaves a metric without samples.
			out.Correct = false
			m.Value = 0
		}
		out.Metrics[m.name] = m.metric
	}
	line, _ := json.Marshal(out) // every value is finite
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// outDir, relative to the repository root the benchmark runs from, holds
// span files and rerun records; run.sh builds into it too.
var outDir = filepath.Join(".bench_build", "hostbench")

// referenceSeeds are the seeds reference.json covers.
var referenceSeeds = []int64{1, 2, 3, 4, 5}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

func printSummary(res *runResult, metrics []named, wl workload, seed int64, ref reference) {
	timed := len(res.timedEpochs(false)) + len(res.timedEpochs(true))
	fmt.Printf("setups %d (setup_s is their median), timed epochs %d (untraced %d) after 1 untimed warm-up\n",
		len(res.setupS), timed, len(res.timedEpochs(false)))
	for _, m := range metrics {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, m.Value, m.Unit)
	}
	untraced := res.timedEpochs(false)
	fmt.Printf("  %-28s %14.6g s (median over %d untraced epochs; epoch_s excludes the steal below)\n",
		"epoch_wall_s", medianOf(untraced, func(e epochStats) float64 { return e.wallS }), len(untraced))
	fmt.Printf("  %-28s %14.6g s\n", "epoch_stolen_s", medianOf(untraced, func(e epochStats) float64 { return e.stolenS }))
	if res.rec == nil {
		for _, m := range res.simulated() {
			fmt.Printf("  %-28s %14.6g %s\n", m.name, m.Value, m.Unit)
		}
	}
	fmt.Printf("  %-28s %14.6g ratio (%d/%d)\n", "fail_ratio", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if _, ok := ref.lookup(wl.name, seed); ok {
		fmt.Printf("check: finite losses, earlier runs of this seed, reference for seed %d (losses rtol %g, simulated stats bit for bit)\n", seed, lossRTol)
	} else {
		fmt.Printf("check: finite losses, earlier runs of this seed; no reference for seed %d\n", seed)
	}
	for _, f := range res.failures {
		fmt.Println("FAIL", f)
	}
}

// writeSpans writes the traced run's spans as tab-separated rows: id,
// parent id, name, start and end in ns from the run's start, FLOPs.
func writeSpans(path string, rec *recorder, env envStamp, wl workload, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# hostbench spans: workload %s seed %d go %s gomaxprocs %d nproc %d git_rev %s\n",
		wl.name, seed, env.Go, env.GOMAXPROCS, env.NProc, env.GitRev)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tflops")
	for i, s := range rec.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%g\n", i, s.parent, kindName(s.kind), s.start, s.end, s.flops)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReference trains refEpochs epochs of every workload at each
// committed seed and writes the reference the output check compares
// against.
func writeReference(path string) error {
	ref := reference{}
	for _, wl := range workloads {
		ref[wl.name] = map[string]refEntry{}
		for _, seed := range referenceSeeds {
			r, err := build(wl.key, wl.backend, seed, nil)
			if err != nil {
				return err
			}
			var eps []epochStats
			for i := 0; i < refEpochs; i++ {
				es, err := r.epoch(nil)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
				}
				eps = append(eps, es)
			}
			r.close()
			ref[wl.name][strconv.FormatInt(seed, 10)] = entryOf(eps)
			fmt.Fprintf(os.Stderr, "reference %s seed %d done\n", wl.name, seed)
		}
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
