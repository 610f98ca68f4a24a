package backend

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// Property tests: the parallel backend must reproduce the serial backend on
// every kernel, across shapes that cover the empty, single-row, tile-ragged,
// below-cutoff, and above-cutoff regimes. The acceptance tolerance is 1e-5;
// the implementation contract is stronger (bitwise identity, checked by
// TestParallelBitwiseIdentity), since every parallel decomposition preserves
// the serial per-element accumulation order.

func TestMain(m *testing.M) {
	// The worker pool sizes itself to GOMAXPROCS on first use. Force at
	// least 4 workers so parallelFor really splits work (and the race
	// detector sees real concurrency) even on single-core CI hosts.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

const tol = 1e-5

func rnd(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

func clone(x []float32) []float32 {
	out := make([]float32, len(x))
	copy(out, x)
	return out
}

// compare fails the test if got and want diverge by more than tol anywhere.
func compare(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		d := math.Abs(float64(got[i]) - float64(want[i]))
		if d > tol || math.IsNaN(float64(got[i])) != math.IsNaN(float64(want[i])) {
			t.Fatalf("%s: index %d: parallel %v, serial %v (|diff| %g > %g)",
				name, i, got[i], want[i], d, tol)
		}
	}
}

func compareInt32(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d: parallel %d, serial %d", name, i, got[i], want[i])
		}
	}
}

// gemmShapes spans empty, 1-row, ragged (non-multiple-of-tile), sub-cutoff,
// and above-cutoff (m*n*k >= minParallelWork with m >= pool size) GEMMs.
var gemmShapes = [][3]int{
	{0, 4, 4}, {4, 0, 4}, {4, 4, 0},
	{1, 1, 1}, {1, 33, 17},
	{7, 5, 3}, {33, 65, 17},
	{64, 64, 64}, {65, 33, 127},
}

func TestMatMulVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, p := NewSerial(), NewParallel()
	for _, sh := range gemmShapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := rnd(rng, m*k)
		b := rnd(rng, k*n)
		at := rnd(rng, k*m) // MatMulTA input stored (k,m)
		bt := rnd(rng, n*k) // MatMulTB input stored (n,k)
		base := rnd(rng, m*n)

		outS, outP := clone(base), clone(base)
		s.MatMul(a, b, outS, m, n, k)
		p.MatMul(a, b, outP, m, n, k)
		compare(t, "MatMul", outP, outS)

		outS, outP = clone(base), clone(base)
		s.MatMulTA(at, b, outS, m, n, k)
		p.MatMulTA(at, b, outP, m, n, k)
		compare(t, "MatMulTA", outP, outS)

		outS, outP = clone(base), clone(base)
		s.MatMulTB(a, bt, outS, m, n, k)
		p.MatMulTB(a, bt, outP, m, n, k)
		compare(t, "MatMulTB", outP, outS)
	}
}

// randCSR builds a CSR with roughly deg entries per row (colliding columns
// allowed, matching real adjacency usage).
func randCSR(rng *rand.Rand, rows, cols, deg int) (rowPtr, colIdx []int32) {
	rowPtr = make([]int32, rows+1)
	for i := 0; i < rows; i++ {
		rowPtr[i+1] = rowPtr[i] + int32(rng.Intn(deg+1))
	}
	colIdx = make([]int32, rowPtr[rows])
	for i := range colIdx {
		colIdx[i] = int32(rng.Intn(cols))
	}
	return rowPtr, colIdx
}

func TestSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, p := NewSerial(), NewParallel()
	for _, sh := range [][2]int{{0, 4}, {1, 1}, {7, 33}, {300, 128}} {
		rows, f := sh[0], sh[1]
		rowPtr, colIdx := randCSR(rng, rows, rows+1, 9)
		x := rnd(rng, (rows+1)*f)
		vals := rnd(rng, len(colIdx))
		for _, withVals := range []bool{false, true} {
			v := vals
			if !withVals {
				v = nil
			}
			base := rnd(rng, rows*f)
			outS, outP := clone(base), clone(base)
			s.SpMM(rowPtr, colIdx, v, x, outS, rows, f)
			p.SpMM(rowPtr, colIdx, v, x, outP, rows, f)
			compare(t, "SpMM", outP, outS)
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s, p := NewSerial(), NewParallel()
	for _, sh := range [][5]int{{1, 1, 2, 2, 2}, {2, 3, 8, 8, 2}, {4, 8, 32, 32, 2}} {
		n, c, h, w, k := sh[0], sh[1], sh[2], sh[3], sh[4]
		x := rnd(rng, n*c*h*w)
		oh, ow := h/k, w/k
		outS := make([]float32, n*c*oh*ow)
		outP := make([]float32, n*c*oh*ow)
		argS := make([]int32, len(outS))
		argP := make([]int32, len(outP))
		s.MaxPool2D(x, outS, argS, n, c, h, w, k)
		p.MaxPool2D(x, outP, argP, n, c, h, w, k)
		compare(t, "MaxPool2D", outP, outS)
		compareInt32(t, "MaxPool2D/arg", argP, argS)
	}
}

func TestGatherScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, p := NewSerial(), NewParallel()
	for _, sh := range [][3]int{{0, 4, 3}, {1, 1, 1}, {9, 33, 40}, {500, 64, 600}} {
		nIdx, f, nRows := sh[0], sh[1], sh[2]
		x := rnd(rng, nRows*f)
		idx := make([]int32, nIdx)
		for i := range idx {
			idx[i] = int32(rng.Intn(nRows)) // collisions expected
		}

		outS := make([]float32, nIdx*f)
		outP := make([]float32, nIdx*f)
		s.GatherRows(x, outS, idx, f)
		p.GatherRows(x, outP, idx, f)
		compare(t, "GatherRows", outP, outS)

		base := rnd(rng, nRows*f)
		src := rnd(rng, nIdx*f)
		dstS, dstP := clone(base), clone(base)
		s.ScatterAddRows(dstS, src, idx, f)
		p.ScatterAddRows(dstP, src, idx, f)
		compare(t, "ScatterAddRows", dstP, dstS)
	}

	// Flat ScatterAdd with colliding indices (serial by contract).
	dstS := rnd(rng, 50)
	dstP := clone(dstS)
	src := rnd(rng, 400)
	idx := make([]int32, len(src))
	for i := range idx {
		idx[i] = int32(rng.Intn(len(dstS)))
	}
	s.ScatterAdd(dstS, src, idx)
	p.ScatterAdd(dstP, src, idx)
	compare(t, "ScatterAdd", dstP, dstS)
}

// rowShapes covers reductions and row-parallel kernels: empty, one row, one
// column, ragged, and above-cutoff sizes.
var rowShapes = [][2]int{{0, 5}, {5, 0}, {1, 1}, {1, 129}, {17, 1}, {33, 65}, {700, 64}}

func TestReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s, p := NewSerial(), NewParallel()
	for _, sh := range rowShapes {
		n, f := sh[0], sh[1]
		x := rnd(rng, n*f)

		if g, w := p.SumAll(x), s.SumAll(x); g != w {
			t.Fatalf("SumAll: parallel %v, serial %v", g, w)
		}

		baseF := rnd(rng, f)
		outS, outP := clone(baseF), clone(baseF)
		s.SumRows(x, outS, n, f)
		p.SumRows(x, outP, n, f)
		compare(t, "SumRows", outP, outS)

		outS = make([]float32, n)
		outP = make([]float32, n)
		s.SumCols(x, outS, n, f)
		p.SumCols(x, outP, n, f)
		compare(t, "SumCols", outP, outS)

		if f > 0 {
			maxS := make([]float32, n)
			maxP := make([]float32, n)
			argS := make([]int32, n)
			argP := make([]int32, n)
			s.MaxCols(x, maxS, argS, n, f)
			p.MaxCols(x, maxP, argP, n, f)
			compare(t, "MaxCols", maxP, maxS)
			compareInt32(t, "MaxCols/arg", argP, argS)

			smS := make([]float32, n*f)
			smP := make([]float32, n*f)
			s.Softmax(x, smS, n, f)
			p.Softmax(x, smP, n, f)
			compare(t, "Softmax", smP, smS)

			s.LogSoftmax(x, smS, n, f)
			p.LogSoftmax(x, smP, n, f)
			compare(t, "LogSoftmax", smP, smS)
		}
	}
}

func TestElementWise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s, p := NewSerial(), NewParallel()
	for _, n := range []int{0, 1, 1023, 1<<16 + 3} {
		a := rnd(rng, n)
		b := rnd(rng, n)
		outS := make([]float32, n)
		outP := make([]float32, n)

		binary := []struct {
			name string
			f    func(be Backend, out []float32)
		}{
			{"Add", func(be Backend, out []float32) { be.Add(out, a, b) }},
			{"Sub", func(be Backend, out []float32) { be.Sub(out, a, b) }},
			{"Mul", func(be Backend, out []float32) { be.Mul(out, a, b) }},
			{"Scale", func(be Backend, out []float32) { be.Scale(out, a, 0.37) }},
			{"AddScalar", func(be Backend, out []float32) { be.AddScalar(out, a, -1.5) }},
			{"AddScaled", func(be Backend, out []float32) { be.AddScaled(out, a, b, 0.25) }},
			{"ReLU", func(be Backend, out []float32) { be.ReLU(out, a) }},
			{"ReLUBackward", func(be Backend, out []float32) { be.ReLUBackward(out, a, b) }},
			{"PReLU", func(be Backend, out []float32) { be.PReLU(out, a, 0.1) }},
			{"Sigmoid", func(be Backend, out []float32) { be.Sigmoid(out, a) }},
			{"Tanh", func(be Backend, out []float32) { be.Tanh(out, a) }},
			{"Exp", func(be Backend, out []float32) { be.Exp(out, a) }},
			{"BCEWithLogits", func(be Backend, out []float32) { be.BCEWithLogits(a, b, out) }},
			{"BCEWithLogitsBackward", func(be Backend, out []float32) { be.BCEWithLogitsBackward(a, b, out, 0.5) }},
		}
		for _, op := range binary {
			op.f(s, outS)
			op.f(p, outP)
			compare(t, op.name, outP, outS)
		}
	}
}

func TestDropout(t *testing.T) {
	s, p := NewSerial(), NewParallel()
	x := rnd(rand.New(rand.NewSource(14)), 4096)
	outS := make([]float32, len(x))
	outP := make([]float32, len(x))
	maskS := make([]float32, len(x))
	maskP := make([]float32, len(x))
	// Same seed on both sides: the rng stream is part of the contract, so
	// the parallel backend must consume it in the same index order.
	s.Dropout(x, outS, maskS, 0.3, rand.New(rand.NewSource(99)))
	p.Dropout(x, outP, maskP, 0.3, rand.New(rand.NewSource(99)))
	compare(t, "Dropout", outP, outS)
	compare(t, "Dropout/mask", maskP, maskS)
}

func TestLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s, p := NewSerial(), NewParallel()
	for _, sh := range rowShapes {
		n, f := sh[0], sh[1]
		x := rnd(rng, n*f)
		bias := rnd(rng, f)

		outS := make([]float32, n*f)
		outP := make([]float32, n*f)
		s.AddBiasRows(outS, x, bias, n, f)
		p.AddBiasRows(outP, x, bias, n, f)
		compare(t, "AddBiasRows", outP, outS)

		s.Transpose2D(outS, x, n, f)
		p.Transpose2D(outP, x, n, f)
		compare(t, "Transpose2D", outP, outS)
	}

	in := [4]int{3, 4, 5, 6}
	perm := [4]int{2, 0, 3, 1}
	x := rnd(rng, in[0]*in[1]*in[2]*in[3])
	outS := make([]float32, len(x))
	outP := make([]float32, len(x))
	s.Permute4D(x, outS, in, perm)
	p.Permute4D(x, outP, in, perm)
	compare(t, "Permute4D", outP, outS)

	for _, sh := range [][3]int{{1, 1, 1}, {2, 3, 10}, {4, 16, 1024}} {
		n, c, plane := sh[0], sh[1], sh[2]
		x := rnd(rng, n*c*plane)
		bias := rnd(rng, c)
		outS := make([]float32, len(x))
		outP := make([]float32, len(x))
		s.AddChannelBias(outS, x, bias, n, c, plane)
		p.AddChannelBias(outP, x, bias, n, c, plane)
		compare(t, "AddChannelBias", outP, outS)

		gS := rnd(rng, c)
		gP := clone(gS)
		s.ChannelBiasGrad(x, gS, n, c, plane)
		p.ChannelBiasGrad(x, gP, n, c, plane)
		compare(t, "ChannelBiasGrad", gP, gS)
	}
}

func TestNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	s, p := NewSerial(), NewParallel()
	const eps = 1e-5
	for _, sh := range [][2]int{{1, 1}, {4, 7}, {33, 65}, {600, 64}} {
		n, f := sh[0], sh[1]
		x := rnd(rng, n*f)
		gamma := rnd(rng, f)
		beta := rnd(rng, f)
		dy := rnd(rng, n*f)

		meanS := make([]float32, f)
		meanP := make([]float32, f)
		varS := make([]float32, f)
		varP := make([]float32, f)
		s.BatchNormStats(x, meanS, varS, n, f)
		p.BatchNormStats(x, meanP, varP, n, f)
		compare(t, "BatchNormStats/mean", meanP, meanS)
		compare(t, "BatchNormStats/var", varP, varS)

		outS := make([]float32, n*f)
		outP := make([]float32, n*f)
		s.BatchNormApply(x, meanS, varS, gamma, beta, outS, n, f, eps)
		p.BatchNormApply(x, meanS, varS, gamma, beta, outP, n, f, eps)
		compare(t, "BatchNormApply", outP, outS)

		xhat := rnd(rng, n*f)
		dxS := make([]float32, n*f)
		dxP := make([]float32, n*f)
		dgS := make([]float32, f)
		dgP := make([]float32, f)
		dbS := make([]float32, f)
		dbP := make([]float32, f)
		s.BatchNormBackward(xhat, dy, varS, gamma, dxS, dgS, dbS, n, f, eps)
		p.BatchNormBackward(xhat, dy, varS, gamma, dxP, dgP, dbP, n, f, eps)
		compare(t, "BatchNormBackward/dx", dxP, dxS)
		compare(t, "BatchNormBackward/dgamma", dgP, dgS)
		compare(t, "BatchNormBackward/dbeta", dbP, dbS)

		xhS := make([]float32, n*f)
		xhP := make([]float32, n*f)
		invS := make([]float32, n)
		invP := make([]float32, n)
		s.LayerNormForward(x, gamma, beta, outS, xhS, invS, n, f, eps)
		p.LayerNormForward(x, gamma, beta, outP, xhP, invP, n, f, eps)
		compare(t, "LayerNormForward", outP, outS)
		compare(t, "LayerNormForward/xhat", xhP, xhS)
		compare(t, "LayerNormForward/invStd", invP, invS)

		for i := range dxS {
			dxS[i], dxP[i] = 0, 0
		}
		for i := range dgS {
			dgS[i], dgP[i], dbS[i], dbP[i] = 0, 0, 0, 0
		}
		s.LayerNormBackward(xhS, invS, dy, gamma, dxS, dgS, dbS, n, f)
		p.LayerNormBackward(xhS, invS, dy, gamma, dxP, dgP, dbP, n, f)
		compare(t, "LayerNormBackward/dx", dxP, dxS)
		compare(t, "LayerNormBackward/dgamma", dgP, dgS)
		compare(t, "LayerNormBackward/dbeta", dbP, dbS)
	}

	for _, sh := range [][3]int{{1, 1, 1}, {2, 3, 9}, {4, 8, 1024}} {
		b, c, plane := sh[0], sh[1], sh[2]
		x := rnd(rng, b*c*plane)
		gamma := rnd(rng, c)
		beta := rnd(rng, c)
		dy := rnd(rng, b*c*plane)

		outS := make([]float32, len(x))
		outP := make([]float32, len(x))
		xhS := make([]float32, len(x))
		xhP := make([]float32, len(x))
		varS := make([]float32, c)
		varP := make([]float32, c)
		s.BatchNorm2D(x, gamma, beta, outS, xhS, varS, b, c, plane, eps)
		p.BatchNorm2D(x, gamma, beta, outP, xhP, varP, b, c, plane, eps)
		compare(t, "BatchNorm2D", outP, outS)
		compare(t, "BatchNorm2D/xhat", xhP, xhS)
		compare(t, "BatchNorm2D/var", varP, varS)

		dxS := make([]float32, len(x))
		dxP := make([]float32, len(x))
		dgS := make([]float32, c)
		dgP := make([]float32, c)
		dbS := make([]float32, c)
		dbP := make([]float32, c)
		s.BatchNorm2DBackward(xhS, dy, varS, gamma, dxS, dgS, dbS, b, c, plane, eps)
		p.BatchNorm2DBackward(xhS, dy, varS, gamma, dxP, dgP, dbP, b, c, plane, eps)
		compare(t, "BatchNorm2DBackward/dx", dxP, dxS)
		compare(t, "BatchNorm2DBackward/dgamma", dgP, dgS)
		compare(t, "BatchNorm2DBackward/dbeta", dbP, dbS)
	}
}

func TestFusedCells(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s, p := NewSerial(), NewParallel()

	for _, sh := range [][3]int{{1, 1, 1}, {2, 5, 16}, {4, 64, 128}} {
		b, c, plane := sh[0], sh[1], sh[2]
		x := rnd(rng, b*2*c*plane)
		dy := rnd(rng, b*c*plane)

		outS := make([]float32, b*c*plane)
		outP := make([]float32, b*c*plane)
		gateS := make([]float32, b*c*plane)
		gateP := make([]float32, b*c*plane)
		s.GLU4D(x, outS, gateS, b, c, plane)
		p.GLU4D(x, outP, gateP, b, c, plane)
		compare(t, "GLU4D", outP, outS)
		compare(t, "GLU4D/gate", gateP, gateS)

		dxS := make([]float32, len(x))
		dxP := make([]float32, len(x))
		s.GLU4DBackward(x, gateS, dy, dxS, b, c, plane)
		p.GLU4DBackward(x, gateS, dy, dxP, b, c, plane)
		compare(t, "GLU4DBackward", dxP, dxS)
	}

	for _, sh := range [][2]int{{1, 1}, {3, 17}, {64, 96}} {
		b, hd := sh[0], sh[1]
		gates := rnd(rng, b*4*hd)
		cPrev := rnd(rng, b*hd)
		mk := func() []float32 { return make([]float32, b*hd) }
		giS, gfS, ggS, goS, cNewS, hS := mk(), mk(), mk(), mk(), mk(), mk()
		giP, gfP, ggP, goP, cNewP, hP := mk(), mk(), mk(), mk(), mk(), mk()
		s.LSTMCellForward(gates, cPrev, giS, gfS, ggS, goS, cNewS, hS, b, hd)
		p.LSTMCellForward(gates, cPrev, giP, gfP, ggP, goP, cNewP, hP, b, hd)
		compare(t, "LSTMCellForward/c", cNewP, cNewS)
		compare(t, "LSTMCellForward/h", hP, hS)
		compare(t, "LSTMCellForward/gi", giP, giS)
		compare(t, "LSTMCellForward/go", goP, goS)

		dH := rnd(rng, b*hd)
		dC := rnd(rng, b*hd)
		for _, nilDH := range []bool{false, true} {
			h, c := dH, dC
			if nilDH {
				h, c = nil, nil
			}
			dGatesS := make([]float32, b*4*hd)
			dGatesP := make([]float32, b*4*hd)
			dCPrevS, dCPrevP := mk(), mk()
			s.LSTMCellBackward(giS, gfS, ggS, goS, cPrev, cNewS, h, c, dGatesS, dCPrevS, b, hd)
			p.LSTMCellBackward(giS, gfS, ggS, goS, cPrev, cNewS, h, c, dGatesP, dCPrevP, b, hd)
			compare(t, "LSTMCellBackward/dGates", dGatesP, dGatesS)
			compare(t, "LSTMCellBackward/dCPrev", dCPrevP, dCPrevS)
		}
	}
}

func TestOptimizers(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	s, p := NewSerial(), NewParallel()
	for _, n := range []int{0, 1, 999, 1 << 16} {
		param := rnd(rng, n)
		g := rnd(rng, n)

		for _, withBuf := range []bool{false, true} {
			pS, pP := clone(param), clone(param)
			var bufS, bufP []float32
			if withBuf {
				buf := rnd(rng, n)
				bufS, bufP = clone(buf), clone(buf)
			}
			s.SGDStep(pS, g, bufS, 0.01, 0.9, 1e-4)
			p.SGDStep(pP, g, bufP, 0.01, 0.9, 1e-4)
			compare(t, "SGDStep/p", pP, pS)
			if withBuf {
				compare(t, "SGDStep/buf", bufP, bufS)
			}
		}

		m := rnd(rng, n)
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() // second moment must be non-negative
		}
		pS, pP := clone(param), clone(param)
		mS, mP := clone(m), clone(m)
		vS, vP := clone(v), clone(v)
		s.AdamStep(pS, g, mS, vS, 0.001, 0.9, 0.999, 1e-8, 3)
		p.AdamStep(pP, g, mP, vP, 0.001, 0.9, 0.999, 1e-8, 3)
		compare(t, "AdamStep/p", pP, pS)
		compare(t, "AdamStep/m", mP, mS)
		compare(t, "AdamStep/v", vP, vS)
	}
}

// TestParallelBitwiseIdentity checks the stronger implementation contract on
// the accumulation-heavy kernels: not just within tolerance but bit for bit,
// because every parallel decomposition preserves the serial per-element
// accumulation order.
func TestParallelBitwiseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s, p := NewSerial(), NewParallel()
	const m, n, k = 65, 33, 127
	a := rnd(rng, m*k)
	b := rnd(rng, k*n)
	outS := make([]float32, m*n)
	outP := make([]float32, m*n)
	s.MatMul(a, b, outS, m, n, k)
	p.MatMul(a, b, outP, m, n, k)
	for i := range outS {
		if outS[i] != outP[i] {
			t.Fatalf("MatMul not bitwise identical at %d: serial %b parallel %b",
				i, outS[i], outP[i])
		}
	}

	x := rnd(rng, 700*64)
	sumS := make([]float32, 64)
	sumP := make([]float32, 64)
	s.SumRows(x, sumS, 700, 64)
	p.SumRows(x, sumP, 700, 64)
	for i := range sumS {
		if sumS[i] != sumP[i] {
			t.Fatalf("SumRows not bitwise identical at %d", i)
		}
	}
}

// TestConcurrentUse hammers the shared worker pool from several goroutines:
// backends must be safe for concurrent use by independent callers (this is
// the -race target).
func TestConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := NewParallel()
	s := NewSerial()
	const m, n, k = 64, 64, 64
	a := rnd(rng, m*k)
	b := rnd(rng, k*n)
	want := make([]float32, m*n)
	s.MatMul(a, b, want, m, n, k)
	// Conv2DGradInput also shares the pooled column scratch across callers.
	cp := convShapes[3]
	dy := rnd(rng, cp.N*cp.Cout*cp.OH*cp.OW)
	w := rnd(rng, cp.Cout*cp.Cin*cp.KH*cp.KW)
	wantDX := make([]float32, cp.N*cp.Cin*cp.H*cp.W)
	s.Conv2DGradInput(dy, w, wantDX, cp)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, m*n)
			dx := make([]float32, len(wantDX))
			for iter := 0; iter < 20; iter++ {
				clear(out)
				p.MatMul(a, b, out, m, n, k)
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("concurrent MatMul diverged at %d", i)
						return
					}
				}
				clear(dx)
				p.Conv2DGradInput(dy, w, dx, cp)
				for i := range dx {
					if dx[i] != wantDX[i] {
						t.Errorf("concurrent Conv2DGradInput diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"", "serial", "parallel"} {
		be, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if name != "" && be.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, be.Name())
		}
	}
	if _, err := New("cuda"); err == nil {
		t.Fatal("New(cuda) should fail")
	}
	if got := Default().Name(); got != "serial" {
		t.Fatalf("Default() = %q, want serial", got)
	}
}
