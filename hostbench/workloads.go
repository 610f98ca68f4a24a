package main

// workload is one benchmark workload: a registry workload on a backend,
// chosen because one layer dominates its host time. README.md has the
// measured shares and the layer -> metric -> workload table.
type workload struct {
	name    string
	key     string // core registry key; the dataset is the spec's default
	backend string
	why     string
}

var workloads = []workload{
	{
		name: "stgcn-par", key: "STGCN", backend: "parallel",
		why: "STGCN/METR-LA on the worker pool: conv numerics are 85-89% of host time (720 large kernels an epoch); the only workload with conv",
	},
	{
		name: "gw", key: "GW", backend: "serial",
		// Not in BENCHMARK.json: its epoch time follows the count of
		// subnormal floats training produces, which differs by seed.
		why: "GraphWriter/AGENDA, serial: GEMM is 73-85% of host time (1.4M parameters, Adam); no conv",
	},
	{
		name: "tlstm", key: "TLSTM", backend: "serial",
		why: "Tree-LSTM/SST, serial: about 7,600 tiny kernels an epoch, backend calls under 20% of host time; per-kernel overhead dominates",
	},
	{
		name: "dgcn-par", key: "DGCN", backend: "parallel",
		why: "DeepGCN/ogbg-molhiv on the pool: 5.78M allocations an epoch and mid-sized kernels; allocation, GC and pool dispatch dominate",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
