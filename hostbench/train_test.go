package main

import (
	"math"
	"testing"

	"gnnmark/internal/core"
)

// The benchmark must train exactly what `gnnmark run` trains: on
// a two-epoch config of every workload it reproduces core.Run's loss bits,
// simulated epoch times, kernel count and peak device memory.
func TestTrainingMatchesCoreRun(t *testing.T) {
	const seed, epochs = 3, 2
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			want, err := core.Run(core.RunConfig{
				Workload: wl.key, Epochs: epochs, Seed: seed, SampledWarps: sampledWarps, Backend: wl.backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := build(wl.key, wl.backend, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			var kernels uint64
			var got epochStats
			for i := 0; i < epochs; i++ {
				if got, err = r.epoch(nil); err != nil {
					t.Fatal(err)
				}
				kernels += got.kernels
				if math.Float64bits(got.loss) != math.Float64bits(want.Losses[i]) {
					t.Errorf("epoch %d loss %v, core.Run %v", i, got.loss, want.Losses[i])
				}
				if math.Float64bits(got.simS) != math.Float64bits(want.EpochSeconds[i]) {
					t.Errorf("epoch %d sim time %v s, core.Run %v s", i, got.simS, want.EpochSeconds[i])
				}
			}
			if kernels != want.Report.Kernels {
				t.Errorf("kernels %d, core.Run %d", kernels, want.Report.Kernels)
			}
			if got.peakLive != want.Mem.PeakLive {
				t.Errorf("peak live %d B, core.Run %d B", got.peakLive, want.Mem.PeakLive)
			}
		})
	}
}

// The committed reference must cover every workload, and each entry every
// epoch the checks compare.
func TestReferenceCoversWorkloads(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		seeds := ref[wl.name]
		if len(seeds) == 0 {
			t.Errorf("%s: no reference", wl.name)
		}
		for seed, e := range seeds {
			for name, n := range map[string]int{"loss": len(e.Loss), "kernels": len(e.Kernels), "sim_s": len(e.SimS), "peak_live_bytes": len(e.PeakLiveBytes)} {
				if n != refEpochs {
					t.Errorf("%s seed %s: %d %s values, want %d", wl.name, seed, n, name, refEpochs)
				}
			}
		}
	}
}
