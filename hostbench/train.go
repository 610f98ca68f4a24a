package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gnnmark/internal/backend"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/profiler"
	"gnnmark/internal/tensor"
)

// sampledWarps is the device's cache-replay budget in every benchmark run
// (`gnnmark run -warps 512`): it keeps the simulator's share of host time
// near what the workload sizing in README.md assumes.
const sampledWarps = 512

// replica is one training stack built through the public entry point of
// each layer, wired exactly as core.Run wires a single-device run with the
// pipeline off.
type replica struct {
	dev  *gpu.Device
	prof *profiler.Profiler
	env  *models.Env
	w    models.Workload

	// Device activity since the last epoch boundary, from Subscribe and
	// SubscribeTransfers.
	kernels  uint64
	h2dBytes uint64
}

// build constructs a replica of workload key on the named backend. A
// non-nil recorder wraps the backend in the timing decorator. Construction
// panics (a simulated OOM among them) come back as errors.
func build(key, backendName string, seed int64, rec *recorder) (r *replica, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("build %s: panic: %v", key, p)
		}
	}()
	spec, err := core.Lookup(key)
	if err != nil {
		return nil, err
	}
	rc := core.RunConfig{SampledWarps: sampledWarps}
	devCfg, err := rc.DeviceConfig(0)
	if err != nil {
		return nil, err
	}
	be, err := backend.New(backendName)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		be = &timedBackend{in: be, rec: rec}
	}
	dev := gpu.New(devCfg)
	prof := profiler.Attach(dev)
	env := models.NewEnv(ops.NewWith(dev, be), seed)
	env.OnIteration = prof.NextIteration
	w := spec.Build(env, spec.Datasets[0], 1)
	// core.Run measures training only: construction kernels, clock and
	// memory peak are rebased here.
	prof.Reset()
	dev.ResetClock()
	dev.Mem().ResetPeak()
	env.E.EnablePipeline(0, false)

	r = &replica{dev: dev, prof: prof, env: env, w: w}
	dev.Subscribe(func(gpu.KernelStats) { r.kernels++ })
	dev.SubscribeTransfers(func(ts gpu.TransferStats) { r.h2dBytes += ts.Bytes })
	return r, nil
}

// close stops the replica's loaders; a nil replica is a no-op.
func (r *replica) close() {
	if r != nil {
		r.env.Close()
	}
}

// epochStats is one epoch's measurements: host figures from the Go runtime
// and getrusage, simulated figures from the device.
type epochStats struct {
	loss  float64
	wallS float64
	// stolenS is the CPU time the hypervisor took from this machine during
	// the epoch, per CPU; hostS = wallS - stolenS.
	stolenS float64
	cpuS    float64

	mallocs, gcs, gcPauseNs, allocBytes uint64
	poolGets, poolHits                  uint64

	kernels    uint64
	simS       float64
	h2dBytes   uint64
	vmemAllocs uint64
	vmemReuse  uint64
	// peakLive is the device high-water mark since training began, the
	// figure core.Run reports as RunResult.Mem.PeakLive.
	peakLive int64

	phases obs.PhaseBreakdown // zero unless obs was enabled
}

// processCPU returns the process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stolenSeconds returns the steal time /proc/stat reports, averaged over
// the machine's CPUs: time the hypervisor ran something else while this
// machine's CPUs had work. It is 0 where the kernel reports none.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total float64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		ticks, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			return 0
		}
		total += ticks / 100 // /proc/stat counts in USER_HZ = 100 ticks a second
		cpus++
	}
	if cpus == 0 {
		return 0
	}
	return total / float64(cpus)
}

// hostS is the epoch's wall time less the time stolen from it.
func (es epochStats) hostS() float64 { return es.wallS - es.stolenS }

// epoch trains one epoch with core.Run's per-epoch bookkeeping (close the
// trailing phase, mark the profiler epoch, reset the engine's per-tensor
// bookkeeping) and measures it. The wall time, and the epoch span on rec,
// cover that bookkeeping; the runtime and rusage snapshots sit outside it.
// A panic comes back as an error.
func (r *replica) epoch(rec *recorder) (es epochStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("epoch: panic: %v", p)
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pool0 := tensor.GetPoolStats()
	mem0 := r.dev.MemStats()
	phase0 := obs.CapturePhases()
	r.kernels, r.h2dBytes = 0, 0
	cpu0 := processCPU()
	steal0 := stolenSeconds()
	rec.push(kindEpoch)
	t0 := time.Now()

	scope := r.env.E.Track().Begin("epoch", obs.CatPhase)
	es.loss = r.w.TrainEpoch()
	r.env.FinishPhase()
	scope.End()
	r.prof.MarkEpoch()
	r.env.E.Reset()

	es.wallS = time.Since(t0).Seconds()
	rec.pop()
	es.stolenS = stolenSeconds() - steal0
	es.cpuS = processCPU() - cpu0
	if obs.Enabled() {
		es.phases = phase0.Delta(obs.CapturePhases())
	}
	runtime.ReadMemStats(&m1)
	pool1 := tensor.GetPoolStats()
	mem1 := r.dev.MemStats()
	sims := r.prof.EpochSeconds()

	es.mallocs = m1.Mallocs - m0.Mallocs
	es.gcs = uint64(m1.NumGC - m0.NumGC)
	es.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	es.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	es.poolGets = pool1.Gets - pool0.Gets
	es.poolHits = pool1.Hits - pool0.Hits
	es.kernels = r.kernels
	es.simS = sims[len(sims)-1]
	es.h2dBytes = r.h2dBytes
	es.vmemAllocs = mem1.Allocs - mem0.Allocs
	es.vmemReuse = mem1.ReuseHits - mem0.ReuseHits
	es.peakLive = mem1.PeakLive
	if math.IsNaN(es.loss) || math.IsInf(es.loss, 0) {
		return es, fmt.Errorf("epoch: non-finite loss %v", es.loss)
	}
	return es, nil
}
