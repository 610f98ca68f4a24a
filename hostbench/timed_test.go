package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gnnmark/internal/backend"
)

// input returns deterministic slices in [0.05, 1.05): positive, so the
// normalization kernels see valid variances.
type input struct{ rng *rand.Rand }

func (in input) f(n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = 0.05 + in.rng.Float32()
	}
	return x
}

// flat concatenates a call's outputs for a bitwise comparison.
func flat(xs ...any) []float64 {
	var out []float64
	for _, x := range xs {
		switch v := x.(type) {
		case []float32:
			for _, e := range v {
				out = append(out, float64(e))
			}
		case []int32:
			for _, e := range v {
				out = append(out, float64(e))
			}
		case float64:
			out = append(out, v)
		}
	}
	return out
}

// backendCall exercises one Backend method on small inputs and returns
// everything it wrote.
type backendCall struct {
	group group
	run   func(b backend.Backend, in input) []float64
}

var conv = backend.ConvParams{N: 1, Cin: 2, H: 4, W: 4, Cout: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, OH: 4, OW: 4}

var backendCalls = map[string]backendCall{
	"MatMul": {gGEMM, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 12)
		b.MatMul(in.f(8), in.f(6), out, 4, 3, 2)
		return flat(out)
	}},
	"MatMulTA": {gGEMM, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 12)
		b.MatMulTA(in.f(8), in.f(6), out, 4, 3, 2)
		return flat(out)
	}},
	"MatMulTB": {gGEMM, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 12)
		b.MatMulTB(in.f(8), in.f(6), out, 4, 3, 2)
		return flat(out)
	}},
	"SpMM": {gSpMM, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 6)
		b.SpMM([]int32{0, 2, 3, 5}, []int32{0, 2, 1, 0, 2}, in.f(5), in.f(6), out, 3, 2)
		return flat(out)
	}},
	"Conv2D": {gConv, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 32)
		b.Conv2D(in.f(32), in.f(36), out, conv)
		return flat(out)
	}},
	"Conv2DGradInput": {gConv, func(b backend.Backend, in input) []float64 {
		dx := make([]float32, 32)
		b.Conv2DGradInput(in.f(32), in.f(36), dx, conv)
		return flat(dx)
	}},
	"Conv2DGradWeight": {gConv, func(b backend.Backend, in input) []float64 {
		dw := make([]float32, 36)
		b.Conv2DGradWeight(in.f(32), in.f(32), dw, conv)
		return flat(dw)
	}},
	"MaxPool2D": {gReduce, func(b backend.Backend, in input) []float64 {
		out, arg := make([]float32, 8), make([]int32, 8)
		b.MaxPool2D(in.f(32), out, arg, 1, 2, 4, 4, 2)
		return flat(out, arg)
	}},
	"ScatterAdd": {gGatherScatter, func(b backend.Backend, in input) []float64 {
		dst := in.f(4)
		b.ScatterAdd(dst, in.f(3), []int32{0, 3, 0})
		return flat(dst)
	}},
	"GatherRows": {gGatherScatter, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 6)
		b.GatherRows(in.f(8), out, []int32{1, 3, 1}, 2)
		return flat(out)
	}},
	"ScatterAddRows": {gGatherScatter, func(b backend.Backend, in input) []float64 {
		dst := in.f(8)
		b.ScatterAddRows(dst, in.f(6), []int32{0, 2, 0}, 2)
		return flat(dst)
	}},
	"SumAll": {gReduce, func(b backend.Backend, in input) []float64 {
		return flat(b.SumAll(in.f(7)))
	}},
	"SumRows": {gReduce, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 3)
		b.SumRows(in.f(12), out, 4, 3)
		return flat(out)
	}},
	"SumCols": {gReduce, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 4)
		b.SumCols(in.f(12), out, 4, 3)
		return flat(out)
	}},
	"MaxCols": {gReduce, func(b backend.Backend, in input) []float64 {
		out, arg := make([]float32, 4), make([]int32, 4)
		b.MaxCols(in.f(12), out, arg, 4, 3)
		return flat(out, arg)
	}},
	"Softmax": {gReduce, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 12)
		b.Softmax(in.f(12), out, 4, 3)
		return flat(out)
	}},
	"LogSoftmax": {gReduce, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 12)
		b.LogSoftmax(in.f(12), out, 4, 3)
		return flat(out)
	}},
	"Add":       {gElementwise, zip(func(b backend.Backend, out, x, y []float32) { b.Add(out, x, y) })},
	"Sub":       {gElementwise, zip(func(b backend.Backend, out, x, y []float32) { b.Sub(out, x, y) })},
	"Mul":       {gElementwise, zip(func(b backend.Backend, out, x, y []float32) { b.Mul(out, x, y) })},
	"AddScaled": {gElementwise, zip(func(b backend.Backend, out, x, y []float32) { b.AddScaled(out, x, y, 0.3) })},
	"ReLUBackward": {gElementwise, zip(func(b backend.Backend, out, x, y []float32) {
		b.ReLUBackward(out, x, y)
	})},
	"Scale":     {gElementwise, unary(func(b backend.Backend, out, x []float32) { b.Scale(out, x, 1.7) })},
	"AddScalar": {gElementwise, unary(func(b backend.Backend, out, x []float32) { b.AddScalar(out, x, -0.4) })},
	"ReLU":      {gElementwise, unary(func(b backend.Backend, out, x []float32) { b.ReLU(out, x) })},
	"PReLU":     {gElementwise, unary(func(b backend.Backend, out, x []float32) { b.PReLU(out, x, 0.25) })},
	"Sigmoid":   {gElementwise, unary(func(b backend.Backend, out, x []float32) { b.Sigmoid(out, x) })},
	"Tanh":      {gElementwise, unary(func(b backend.Backend, out, x []float32) { b.Tanh(out, x) })},
	"Exp":       {gElementwise, unary(func(b backend.Backend, out, x []float32) { b.Exp(out, x) })},
	"Dropout": {gElementwise, func(b backend.Backend, in input) []float64 {
		out, mask := make([]float32, 16), make([]float32, 16)
		b.Dropout(in.f(16), out, mask, 0.5, rand.New(rand.NewSource(7)))
		return flat(out, mask)
	}},
	"AddBiasRows": {gElementwise, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 12)
		b.AddBiasRows(out, in.f(12), in.f(3), 4, 3)
		return flat(out)
	}},
	"Transpose2D": {gGatherScatter, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 12)
		b.Transpose2D(out, in.f(12), 4, 3)
		return flat(out)
	}},
	"Permute4D": {gGatherScatter, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 24)
		b.Permute4D(in.f(24), out, [4]int{1, 2, 3, 4}, [4]int{0, 2, 3, 1})
		return flat(out)
	}},
	"AddChannelBias": {gElementwise, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 24)
		b.AddChannelBias(out, in.f(24), in.f(3), 2, 3, 4)
		return flat(out)
	}},
	"ChannelBiasGrad": {gReduce, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 3)
		b.ChannelBiasGrad(in.f(24), out, 2, 3, 4)
		return flat(out)
	}},
	"BatchNormStats": {gNorm, func(b backend.Backend, in input) []float64 {
		mean, variance := make([]float32, 3), make([]float32, 3)
		b.BatchNormStats(in.f(12), mean, variance, 4, 3)
		return flat(mean, variance)
	}},
	"BatchNormApply": {gNorm, func(b backend.Backend, in input) []float64 {
		out := make([]float32, 12)
		b.BatchNormApply(in.f(12), in.f(3), in.f(3), in.f(3), in.f(3), out, 4, 3, 1e-5)
		return flat(out)
	}},
	"BatchNormBackward": {gNorm, func(b backend.Backend, in input) []float64 {
		dx, dgamma, dbeta := make([]float32, 12), make([]float32, 3), make([]float32, 3)
		b.BatchNormBackward(in.f(12), in.f(12), in.f(3), in.f(3), dx, dgamma, dbeta, 4, 3, 1e-5)
		return flat(dx, dgamma, dbeta)
	}},
	"LayerNormForward": {gNorm, func(b backend.Backend, in input) []float64 {
		out, xhat, inv := make([]float32, 12), make([]float32, 12), make([]float32, 4)
		b.LayerNormForward(in.f(12), in.f(3), in.f(3), out, xhat, inv, 4, 3, 1e-5)
		return flat(out, xhat, inv)
	}},
	"LayerNormBackward": {gNorm, func(b backend.Backend, in input) []float64 {
		dx, dgamma, dbeta := make([]float32, 12), make([]float32, 3), make([]float32, 3)
		b.LayerNormBackward(in.f(12), in.f(4), in.f(12), in.f(3), dx, dgamma, dbeta, 4, 3)
		return flat(dx, dgamma, dbeta)
	}},
	"BatchNorm2D": {gNorm, func(b backend.Backend, in input) []float64 {
		out, xhat, variance := make([]float32, 24), make([]float32, 24), make([]float32, 3)
		b.BatchNorm2D(in.f(24), in.f(3), in.f(3), out, xhat, variance, 2, 3, 4, 1e-5)
		return flat(out, xhat, variance)
	}},
	"BatchNorm2DBackward": {gNorm, func(b backend.Backend, in input) []float64 {
		dx, dgamma, dbeta := make([]float32, 24), make([]float32, 3), make([]float32, 3)
		b.BatchNorm2DBackward(in.f(24), in.f(24), in.f(3), in.f(3), dx, dgamma, dbeta, 2, 3, 4, 1e-5)
		return flat(dx, dgamma, dbeta)
	}},
	"GLU4D": {gElementwise, func(b backend.Backend, in input) []float64 {
		out, gate := make([]float32, 12), make([]float32, 12)
		b.GLU4D(in.f(24), out, gate, 2, 2, 3)
		return flat(out, gate)
	}},
	"GLU4DBackward": {gElementwise, func(b backend.Backend, in input) []float64 {
		dx := make([]float32, 24)
		b.GLU4DBackward(in.f(24), in.f(12), in.f(12), dx, 2, 2, 3)
		return flat(dx)
	}},
	"LSTMCellForward": {gElementwise, func(b backend.Backend, in input) []float64 {
		o := make([][]float32, 6)
		for i := range o {
			o[i] = make([]float32, 6)
		}
		b.LSTMCellForward(in.f(24), in.f(6), o[0], o[1], o[2], o[3], o[4], o[5], 2, 3)
		return flat(o[0], o[1], o[2], o[3], o[4], o[5])
	}},
	"LSTMCellBackward": {gElementwise, func(b backend.Backend, in input) []float64 {
		dGates, dCPrev := make([]float32, 24), make([]float32, 6)
		b.LSTMCellBackward(in.f(6), in.f(6), in.f(6), in.f(6), in.f(6), in.f(6), in.f(6), in.f(6), dGates, dCPrev, 2, 3)
		return flat(dGates, dCPrev)
	}},
	"BCEWithLogits": {gElementwise, zip(func(b backend.Backend, out, x, y []float32) { b.BCEWithLogits(x, y, out) })},
	"BCEWithLogitsBackward": {gElementwise, zip(func(b backend.Backend, out, x, y []float32) {
		b.BCEWithLogitsBackward(x, y, out, 0.5)
	})},
	"SGDStep": {gOptim, func(b backend.Backend, in input) []float64 {
		p, buf := in.f(8), in.f(8)
		b.SGDStep(p, in.f(8), buf, 0.1, 0.9, 1e-4)
		return flat(p, buf)
	}},
	"AdamStep": {gOptim, func(b backend.Backend, in input) []float64 {
		p, m, v := in.f(8), in.f(8), in.f(8)
		b.AdamStep(p, in.f(8), m, v, 1e-3, 0.9, 0.999, 1e-8, 3)
		return flat(p, m, v)
	}},
}

func zip(f func(b backend.Backend, out, x, y []float32)) func(backend.Backend, input) []float64 {
	return func(b backend.Backend, in input) []float64 {
		out := make([]float32, 16)
		f(b, out, in.f(16), in.f(16))
		return flat(out)
	}
}

func unary(f func(b backend.Backend, out, x []float32)) func(backend.Backend, input) []float64 {
	return func(b backend.Backend, in input) []float64 {
		out := make([]float32, 16)
		f(b, out, in.f(16))
		return flat(out)
	}
}

// Every Backend method forwarded through the decorator must write the same
// bits as the wrapped backend and record exactly one span in its group.
func TestTimedBackendForwardsEveryMethod(t *testing.T) {
	iface := reflect.TypeOf((*backend.Backend)(nil)).Elem()
	for i := 0; i < iface.NumMethod(); i++ {
		if name := iface.Method(i).Name; name != "Name" && backendCalls[name].run == nil {
			t.Errorf("no test call for Backend.%s", name)
		}
	}
	for _, inner := range []backend.Backend{backend.NewSerial(), backend.NewParallel()} {
		rec := newRecorder()
		rec.on.Store(true)
		timed := &timedBackend{in: inner, rec: rec}
		if timed.Name() != inner.Name() {
			t.Errorf("Name %q, want %q", timed.Name(), inner.Name())
		}
		for name, c := range backendCalls {
			want := c.run(inner, input{rand.New(rand.NewSource(1))})
			n := len(rec.spans)
			got := c.run(timed, input{rand.New(rand.NewSource(1))})
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Errorf("%s/%s: output %d = %v, want %v", inner.Name(), name, j, got[j], want[j])
					break
				}
			}
			if len(rec.spans) != n+1 || rec.spans[n].kind != uint8(c.group) {
				t.Errorf("%s/%s: recorded %d spans, last %s; want one %s span",
					inner.Name(), name, len(rec.spans)-n, kindName(rec.spans[len(rec.spans)-1].kind), groupNames[c.group])
			}
		}
	}
}

// A traced epoch must train exactly what an untraced one trains: the same
// loss bits and simulated statistics, on both backends.
func TestTracedEpochMatchesUntraced(t *testing.T) {
	for _, key := range []string{"DGCN", "TLSTM"} {
		for _, be := range []string{"serial", "parallel"} {
			plain, err := build(key, be, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			traced, err := build(key, be, 2, rec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.epoch(nil)
			if err != nil {
				t.Fatal(err)
			}
			rec.on.Store(true)
			got, err := traced.epoch(rec)
			if err != nil {
				t.Fatal(err)
			}
			plain.close()
			traced.close()
			for _, bad := range diffBits(entryOf([]epochStats{want}), entryOf([]epochStats{got})) {
				t.Errorf("%s/%s: %s", key, be, bad)
			}
			if len(rec.spans) < 3 || rec.spans[1].kind != kindEpoch {
				t.Errorf("%s/%s: %d spans recorded, want the epoch and its backend calls", key, be, len(rec.spans))
			}
		}
	}
}

func TestHeadRev(t *testing.T) {
	const hash = "4af305cb698cfde02b1d0d603f616a80e08ec2ae"
	write := func(dir, name, body string) {
		t.Helper()
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	detached, loose, packed, missing := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(detached, "HEAD", hash+"\n")
	write(loose, "HEAD", "ref: refs/heads/main\n")
	write(loose, "refs/heads/main", hash+"\n")
	write(packed, "HEAD", "ref: refs/heads/main\n")
	write(packed, "packed-refs", "# pack-refs with: peeled fully-peeled sorted\n"+hash+" refs/heads/main\n")
	for _, c := range []struct {
		dir  string
		want string
		ok   bool
	}{{detached, hash, true}, {loose, hash, true}, {packed, hash, true}, {missing, "", false}} {
		got, ok := headRev(c.dir)
		if got != c.want || ok != c.ok {
			t.Errorf("headRev(%s) = %q, %v; want %q, %v", c.dir, got, ok, c.want, c.ok)
		}
	}
}
