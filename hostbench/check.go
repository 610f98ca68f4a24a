package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// lossRTol is how far a loss may drift from the committed reference. A
// faster kernel may reorder float accumulation, and training amplifies the
// difference: computing every GEMM as two half-k products moved GW's
// fourth-epoch loss by 8.4e-4 and DGCN's by 2.3e-4. A wrong kernel moves
// losses by far more. Simulated statistics have no tolerance: a speed-only
// change must leave them bit for bit equal.
const lossRTol = 1e-2

// refEntry is the reference trajectory of one workload at one seed: one
// element per epoch, the warm-up epoch first.
type refEntry struct {
	Loss          []float64 `json:"loss"`
	Kernels       []uint64  `json:"kernels"`
	SimS          []float64 `json:"sim_s"`
	PeakLiveBytes []int64   `json:"peak_live_bytes"`
}

// reference maps workload name -> seed -> entry.
type reference map[string]map[string]refEntry

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

func (ref reference) lookup(name string, seed int64) (refEntry, bool) {
	e, ok := ref[name][strconv.FormatInt(seed, 10)]
	return e, ok
}

func entryOf(epochs []epochStats) refEntry {
	var e refEntry
	for _, es := range epochs {
		e.Loss = append(e.Loss, es.loss)
		e.Kernels = append(e.Kernels, es.kernels)
		e.SimS = append(e.SimS, es.simS)
		e.PeakLiveBytes = append(e.PeakLiveBytes, es.peakLive)
	}
	return e
}

// checkRef compares a run's first epochs against the committed reference:
// losses within lossRTol, simulated statistics bit for bit.
func checkRef(want, got refEntry) []string {
	var bad []string
	for i := range want.Loss {
		if d := math.Abs(got.Loss[i]-want.Loss[i]) / math.Abs(want.Loss[i]); !(d <= lossRTol) {
			bad = append(bad, fmt.Sprintf("epoch %d loss %v, reference %v (rel diff %.3g > %g)", i, got.Loss[i], want.Loss[i], d, lossRTol))
		}
	}
	return append(bad, diffSimulated(want, got)...)
}

// diffSimulated lists the epochs whose simulated statistics differ.
func diffSimulated(want, got refEntry) []string {
	var bad []string
	for i := range want.Kernels {
		if got.Kernels[i] != want.Kernels[i] || math.Float64bits(got.SimS[i]) != math.Float64bits(want.SimS[i]) ||
			got.PeakLiveBytes[i] != want.PeakLiveBytes[i] {
			bad = append(bad, fmt.Sprintf("epoch %d simulated stats kernels %d sim_s %v peak_live_bytes %d, want %d %v %d",
				i, got.Kernels[i], got.SimS[i], got.PeakLiveBytes[i], want.Kernels[i], want.SimS[i], want.PeakLiveBytes[i]))
		}
	}
	return bad
}

// diffBits lists every difference between two runs of one binary at one
// seed, which must agree bit for bit, losses included.
func diffBits(want, got refEntry) []string {
	bad := diffSimulated(want, got)
	for i := range want.Loss {
		if math.Float64bits(got.Loss[i]) != math.Float64bits(want.Loss[i]) {
			bad = append(bad, fmt.Sprintf("epoch %d loss %v, earlier run %v", i, got.Loss[i], want.Loss[i]))
		}
	}
	return bad
}

// checkSeen compares a run against the record an earlier run of the same
// binary left for this workload and seed, or leaves that record. Repeated
// runs of a seed, traced and untraced alike, must agree bit for bit.
// Records sit under a hash of the executable, so a rebuilt program starts
// afresh.
func checkSeen(dir, name string, seed int64, got refEntry) []string {
	exe, err := os.Executable()
	if err != nil {
		return []string{"rerun record: " + err.Error()}
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return []string{"rerun record: " + err.Error()}
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(dir, hex.EncodeToString(sum[:8]), fmt.Sprintf("%s-%d.json", name, seed))
	if b, err := os.ReadFile(path); err == nil {
		var want refEntry
		if err := json.Unmarshal(b, &want); err != nil {
			return []string{fmt.Sprintf("rerun record %s: %v", path, err)}
		}
		return diffBits(want, got)
	}
	b, _ := json.Marshal(got) // slices of numbers; the losses are finite
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return []string{"rerun record: " + err.Error()}
	}
	// Write then rename, so a concurrent run never reads half a record.
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return []string{"rerun record: " + err.Error()}
	}
	if err := os.Rename(tmp, path); err != nil {
		return []string{"rerun record: " + err.Error()}
	}
	return nil
}

// envStamp identifies the machine and revision a result came from.
type envStamp struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GitRev     string `json:"git_rev"`
}

func environment() envStamp {
	return envStamp{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GitRev:     gitRev(),
	}
}

// gitRev returns the VCS revision stamped into the binary, else the commit
// .git/HEAD names in the working directory or its nearest ancestor, else
// "unknown". `go run` and `go test` stamp no VCS information.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if rev, ok := headRev(filepath.Join(dir, ".git")); ok {
			return rev
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// headRev resolves HEAD in gitDir: a detached hash, or a branch ref looked
// up as a loose ref and then in packed-refs.
func headRev(gitDir string) (string, bool) {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "", false
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h, h != ""
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b)), true
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash, true
		}
	}
	return "", false
}
