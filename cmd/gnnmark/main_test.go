package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"gnnmark/internal/gpu"
)

// TestMain lets the tests drive the real CLI: with GNNMARK_CLI_TEST=1 the
// test binary runs main() on its arguments instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("GNNMARK_CLI_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gnnmark runs the CLI with args and returns its stdout and exit code.
func gnnmark(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GNNMARK_CLI_TEST=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stdout.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), 0
}

func TestUsageListsEveryCommand(t *testing.T) {
	var b strings.Builder
	usage(&b)
	out := b.String()
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Fatalf("command %q registered twice", c.name)
		}
		seen[c.name] = true
		if !strings.Contains(out, "  "+c.name+" ") {
			t.Errorf("usage does not list %q", c.name)
		}
		if c.help == "" || strings.Contains(c.help, "\n") {
			t.Errorf("%s: help must be one non-empty line", c.name)
		}
	}
}

// TestEveryCommandRegistersItsFlags asks each command for its flags: a
// flag registered twice panics, and -h must exit cleanly.
func TestEveryCommandRegistersItsFlags(t *testing.T) {
	for _, c := range commands {
		if _, code := gnnmark(t, c.name, "-h"); code != 0 {
			t.Errorf("%s -h exited %d", c.name, code)
		}
	}
}

func TestUnreadFlagsAndArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nope"},
		{"table1", "-epochs", "2"},        // table1 reads no flags
		{"fig9", "-pipeline-depth", "2"},  // the scaling study builds its own replicas
		{"run", "-sweep", "DGCN/layers"},  // another command's flag
		{"datasets", "extra"},             // no positional arguments
		{"run", "-gpus", "2", "-kernels"}, // -kernels records one device
	} {
		if _, code := gnnmark(t, args...); code != 2 {
			t.Errorf("gnnmark %v exited %d, want 2", args, code)
		}
	}
}

// TestRunKernelsTable checks `run -kernels` against per-kernel tables
// recorded with the standalone calibration tool it replaced: the same
// rows, construction-time kernels excluded. Rows compare as a sorted set
// because kernels with equal time may print in either order.
func TestRunKernelsTable(t *testing.T) {
	for _, w := range []string{"ARGA", "TLSTM"} {
		out, code := gnnmark(t, "run", "-workload", w, "-kernels", "-epochs", "1", "-warps", "2048")
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", w, code, out)
		}
		_, table, ok := strings.Cut(out, "per-kernel simulated time (training epochs):\n")
		if !ok {
			t.Fatalf("%s: no kernel table in output:\n%s", w, out)
		}
		want, err := os.ReadFile("testdata/kernels-" + w + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		got, exp := sortedLines(table), sortedLines(string(want))
		if strings.Join(got, "\n") != strings.Join(exp, "\n") {
			t.Errorf("%s: kernel table differs\ngot:\n%s\nwant:\n%s", w, table, want)
		}
	}
}

// TestKernelTableSkipsConstruction pins the restart rule: kernels launched
// before the device clock resets (workload construction, in core.Run) do
// not reach the table.
func TestKernelTableSkipsConstruction(t *testing.T) {
	dev := gpu.New(gpu.V100())
	table := attachKernelTable(dev)
	dev.Launch(&gpu.Kernel{Name: "setup", Class: gpu.OpGEMM, Threads: 1 << 10})
	dev.ResetClock()
	dev.Launch(&gpu.Kernel{Name: "train", Class: gpu.OpGEMM, Threads: 1 << 10})
	dev.Launch(&gpu.Kernel{Name: "train", Class: gpu.OpGEMM, Threads: 1 << 10})
	out := table.String()
	if strings.Contains(out, "setup") || !strings.Contains(out, "n=2     GEMM         train") {
		t.Fatalf("table must hold only the two training launches:\n%s", out)
	}
}

func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return lines
}
