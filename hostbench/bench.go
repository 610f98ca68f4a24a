package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"gnnmark/internal/obs"
)

const (
	// setupBatch builds of the workload run at each of three points of a
	// run: before the warm-up (the last of these trains), after it, and
	// after the timed epochs. setup_s is the median of all of them;
	// spreading them out keeps one burst of host noise from moving it.
	setupBatch = 7
	// minTimed is the fewest timed epochs a run trains, whatever --seconds
	// says, so every run covers refEpochs epochs.
	minTimed = 3
	// refEpochs is the warm-up plus minTimed: the epochs the output checks
	// and the simulated (gpu.*, vmem.*) figures cover, identical in every
	// run at one seed.
	refEpochs = 1 + minTimed
)

// runResult is everything one benchmark run measured.
type runResult struct {
	setupS []float64
	// epochs are the trained epochs in order, the untimed warm-up first;
	// traced[i] says whether epochs[i] ran with the recorder on.
	epochs []epochStats
	traced []bool

	attempted, failed int
	failures          []string

	retainedHeapBytes uint64
	rec               *recorder // nil unless traced
}

// note counts one attempted operation (a setup, an epoch or a check),
// failed when it reported any problem.
func (res *runResult) note(what string, problems ...string) {
	res.attempted++
	if len(problems) == 0 {
		return
	}
	res.failed++
	for _, p := range problems {
		res.failures = append(res.failures, what+": "+p)
	}
}

// run executes one benchmark run of wl at seed: builds, an untimed
// warm-up epoch, builds, timed epochs for at least seconds and minTimed
// epochs, builds. With trace, timed epochs alternate between recorder on
// and off, starting on, so the same run yields per-layer spans and the
// tracing overhead. The first refEpochs epochs are checked against the
// committed reference when it has the seed, and against the record an
// earlier run of the same binary and seed left in seenDir.
func run(wl workload, seed int64, seconds float64, trace bool, ref reference, seenDir string) *runResult {
	res := &runResult{}
	if trace {
		res.rec = newRecorder()
	}
	defer res.rec.finish()
	r := res.builds(wl, seed)
	if r == nil {
		return res
	}
	defer r.close()

	var start time.Time
	for i := 0; i <= minTimed || time.Since(start).Seconds() < seconds; i++ {
		if i == 1 { // epoch 0 was the untimed warm-up
			res.builds(wl, seed).close()
			runtime.GC()
			start = time.Now()
		}
		on := trace && i%2 == 1
		if on {
			res.rec.setOn(true)
			obs.Enable()
		}
		es, err := r.epoch(res.rec)
		if on {
			obs.Disable()
			res.rec.setOn(false)
		}
		if err != nil {
			res.note(fmt.Sprintf("epoch %d", i), err.Error())
			break // the replica's state is unknown after a failed epoch
		}
		res.note(fmt.Sprintf("epoch %d", i))
		res.epochs = append(res.epochs, es)
		res.traced = append(res.traced, on)
	}
	if len(res.epochs) >= refEpochs {
		got := entryOf(res.epochs[:refEpochs])
		if want, ok := ref.lookup(wl.name, seed); ok {
			res.note("reference check", checkRef(want, got)...)
		}
		res.note("rerun check", checkSeen(seenDir, wl.name, seed, got)...)
	}

	// Live heap with the trained replica still reachable: model, optimizer
	// state and whatever the layers cache. sync.Pool contents survive one
	// GC in the victim cache, so the second GC drops them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.retainedHeapBytes = ms.HeapAlloc
	runtime.KeepAlive(r)

	res.builds(wl, seed).close()
	return res
}

// builds builds the workload setupBatch times, recording each build's wall
// time (with a GC before each, untimed), and returns the last build that
// succeeded; the others are closed. A traced run records each build as a
// setup span.
func (res *runResult) builds(wl workload, seed int64) *replica {
	res.rec.setOn(true)
	defer res.rec.setOn(false)
	var r *replica
	for i := 0; i < setupBatch; i++ {
		runtime.GC()
		res.rec.push(kindSetup)
		t0 := time.Now()
		next, err := build(wl.key, wl.backend, seed, res.rec)
		d := time.Since(t0).Seconds()
		res.rec.pop()
		if err != nil {
			res.note("setup", err.Error())
			continue
		}
		res.note("setup")
		res.setupS = append(res.setupS, d)
		r.close()
		r = next
	}
	return r
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named keeps metrics in report order for the summary table.
type named struct {
	name string
	metric
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timedEpochs returns the timed epochs (all but the warm-up) with the
// given recorder state.
func (res *runResult) timedEpochs(traced bool) []epochStats {
	var out []epochStats
	for i := 1; i < len(res.epochs); i++ {
		if res.traced[i] == traced {
			out = append(out, res.epochs[i])
		}
	}
	return out
}

func medianOf(eps []epochStats, f func(epochStats) float64) float64 {
	xs := make([]float64, len(eps))
	for i, es := range eps {
		xs[i] = f(es)
	}
	return median(xs)
}

// endToEnd returns the end-to-end metrics of an untraced run.
func (res *runResult) endToEnd() []named {
	eps := res.timedEpochs(false)
	return []named{
		{"epoch_s", metric{medianOf(eps, epochStats.hostS), "s"}},
		{"setup_s", metric{median(res.setupS), "s"}},
		{"cpu_s_per_epoch", metric{medianOf(eps, func(e epochStats) float64 { return e.cpuS }), "s"}},
		{"allocs_per_epoch", metric{medianOf(eps, func(e epochStats) float64 { return float64(e.mallocs) }), "count"}},
		{"retained_heap_mb", metric{float64(res.retainedHeapBytes) / (1 << 20), "MB"}},
	}
}

// ratio is a/b, 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simulated returns the gpu.* and vmem.* figures over the first refEpochs
// epochs: pure functions of the seed, equal in traced and untraced runs.
func (res *runResult) simulated() []named {
	n := min(refEpochs, len(res.epochs))
	var kernels, allocs, reuse, h2d uint64
	var sim float64
	var peak int64
	for _, es := range res.epochs[:n] {
		kernels += es.kernels
		sim += es.simS
		h2d += es.h2dBytes
		allocs += es.vmemAllocs
		reuse += es.vmemReuse
		peak = es.peakLive
	}
	per := func(x float64) float64 { return ratio(x, float64(n)) }
	return []named{
		{"gpu.kernels_per_epoch", metric{per(float64(kernels)), "count"}},
		{"gpu.sim_epoch_s", metric{per(sim), "s"}},
		{"gpu.h2d_mb_per_epoch", metric{per(float64(h2d) / (1 << 20)), "MB"}},
		{"vmem.allocs_per_epoch", metric{per(float64(allocs)), "count"}},
		{"vmem.reuse_ratio", metric{ratio(float64(reuse), float64(allocs)), "ratio"}},
		{"vmem.peak_live_mb", metric{float64(peak) / (1 << 20), "MB"}},
	}
}

// perLayer returns the per-layer metrics of a traced run. Host figures are
// per traced epoch; the backend and ops split comes from span self times,
// so backend.busy_s + ops.overhead_s = trace.epoch_s exactly.
func (res *runResult) perLayer() []named {
	var groupNs [numGroups]int64
	var groupFlops [numGroups]float64
	var calls, epochs int
	var epochNs, overheadNs int64
	self := res.rec.selfTimes()
	for i, s := range res.rec.spans {
		switch {
		case s.kind == kindEpoch:
			epochs++
			epochNs += s.end - s.start
			overheadNs += self[i]
		case s.kind < uint8(numGroups) && res.rec.spans[s.parent].kind == kindEpoch:
			calls++
			groupNs[s.kind] += self[i]
			groupFlops[s.kind] += s.flops
		}
	}
	perS := func(ns int64) float64 { return ratio(float64(ns)/1e9, float64(epochs)) }
	var busyNs int64
	for _, ns := range groupNs {
		busyNs += ns
	}

	traced := res.timedEpochs(true)
	var sum epochStats
	for _, es := range traced {
		sum.wallS += es.wallS
		sum.cpuS += es.cpuS
		sum.kernels += es.kernels
		sum.gcs += es.gcs
		sum.gcPauseNs += es.gcPauseNs
		sum.allocBytes += es.allocBytes
		sum.poolGets += es.poolGets
		sum.poolHits += es.poolHits
		sum.phases.Forward += es.phases.Forward
		sum.phases.Backward += es.phases.Backward
		sum.phases.Optimizer += es.phases.Optimizer
		sum.phases.DataLoad += es.phases.DataLoad
	}
	per := func(x float64) float64 { return ratio(x, float64(len(traced))) }
	gflops := func(g group) float64 { return ratio(groupFlops[g]/1e9, float64(groupNs[g])/1e9) }
	kernelsPerEpoch := per(float64(sum.kernels))
	untracedHost := medianOf(res.timedEpochs(false), epochStats.hostS)
	tracedHost := medianOf(traced, epochStats.hostS)

	out := []named{
		{"backend.conv_s", metric{perS(groupNs[gConv]), "s"}},
		{"backend.conv_gflops", metric{gflops(gConv), "GFLOP/s"}},
		{"backend.gemm_s", metric{perS(groupNs[gGEMM]), "s"}},
		{"backend.gemm_gflops", metric{gflops(gGEMM), "GFLOP/s"}},
		{"backend.spmm_s", metric{perS(groupNs[gSpMM]), "s"}},
		{"backend.elementwise_s", metric{perS(groupNs[gElementwise]), "s"}},
		{"backend.norm_s", metric{perS(groupNs[gNorm]), "s"}},
		{"backend.gather_scatter_s", metric{perS(groupNs[gGatherScatter]), "s"}},
		{"backend.reduce_s", metric{perS(groupNs[gReduce]), "s"}},
		{"backend.optim_s", metric{perS(groupNs[gOptim]), "s"}},
		{"backend.busy_s", metric{perS(busyNs), "s"}},
		{"backend.calls", metric{ratio(float64(calls), float64(epochs)), "count"}},
		{"backend.share", metric{ratio(float64(busyNs), float64(epochNs)), "ratio"}},
		{"ops.overhead_s", metric{perS(overheadNs), "s"}},
		{"ops.host_per_kernel_us", metric{ratio(perS(overheadNs)*1e6, kernelsPerEpoch), "us"}},
		{"models.forward_s", metric{per(float64(sum.phases.Forward) / 1e9), "s"}},
		{"models.backward_s", metric{per(float64(sum.phases.Backward) / 1e9), "s"}},
		{"models.optimizer_s", metric{per(float64(sum.phases.Optimizer) / 1e9), "s"}},
		{"models.data_load_s", metric{per(float64(sum.phases.DataLoad) / 1e9), "s"}},
	}
	out = append(out, res.simulated()...)
	return append(out,
		named{"tensor.pool_gets_per_epoch", metric{per(float64(sum.poolGets)), "count"}},
		named{"tensor.pool_hit_ratio", metric{ratio(float64(sum.poolHits), float64(sum.poolGets)), "ratio"}},
		named{"runtime.gc_per_epoch", metric{per(float64(sum.gcs)), "count"}},
		named{"runtime.gc_pause_s_per_epoch", metric{per(float64(sum.gcPauseNs) / 1e9), "s"}},
		named{"runtime.alloc_mb_per_epoch", metric{per(float64(sum.allocBytes) / (1 << 20)), "MB"}},
		named{"runtime.cpu_util", metric{ratio(sum.cpuS, sum.wallS), "ratio"}},
		named{"trace.epoch_s", metric{perS(epochNs), "s"}},
		named{"trace.overhead", metric{ratio(tracedHost, untracedHost) - 1, "ratio"}},
	)
}
