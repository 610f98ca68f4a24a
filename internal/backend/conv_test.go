package backend

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Oracles: the direct convolution loop nests the backends shipped before
// convolution was lowered onto the GEMM core. Both backends must reproduce
// them bit for bit on finite inputs.

func conv2DOracle(x, w, out []float32, p ConvParams) {
	for bc := 0; bc < p.N*p.Cout; bc++ {
		b, oc := bc/p.Cout, bc%p.Cout
		for oy := 0; oy < p.OH; oy++ {
			for ox := 0; ox < p.OW; ox++ {
				var s float32
				iy0 := oy*p.StrideH - p.PadH
				ix0 := ox*p.StrideW - p.PadW
				for ic := 0; ic < p.Cin; ic++ {
					for ky := 0; ky < p.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= p.H {
							continue
						}
						xBase := ((b*p.Cin+ic)*p.H + iy) * p.W
						wBase := ((oc*p.Cin+ic)*p.KH + ky) * p.KW
						for kx := 0; kx < p.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= p.W {
								continue
							}
							s += x[xBase+ix] * w[wBase+kx]
						}
					}
				}
				out[((b*p.Cout+oc)*p.OH+oy)*p.OW+ox] = s
			}
		}
	}
}

func conv2DGradInputOracle(dy, w, dx []float32, p ConvParams) {
	for bi := 0; bi < p.N*p.Cin; bi++ {
		b, ic := bi/p.Cin, bi%p.Cin
		for oc := 0; oc < p.Cout; oc++ {
			for oy := 0; oy < p.OH; oy++ {
				for ox := 0; ox < p.OW; ox++ {
					g := dy[((b*p.Cout+oc)*p.OH+oy)*p.OW+ox]
					if g == 0 {
						continue
					}
					iy0 := oy*p.StrideH - p.PadH
					ix0 := ox*p.StrideW - p.PadW
					for ky := 0; ky < p.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= p.H {
							continue
						}
						xBase := ((b*p.Cin+ic)*p.H + iy) * p.W
						wBase := ((oc*p.Cin+ic)*p.KH + ky) * p.KW
						for kx := 0; kx < p.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= p.W {
								continue
							}
							dx[xBase+ix] += g * w[wBase+kx]
						}
					}
				}
			}
		}
	}
}

func conv2DGradWeightOracle(x, dy, dw []float32, p ConvParams) {
	for oc := 0; oc < p.Cout; oc++ {
		for b := 0; b < p.N; b++ {
			for oy := 0; oy < p.OH; oy++ {
				for ox := 0; ox < p.OW; ox++ {
					g := dy[((b*p.Cout+oc)*p.OH+oy)*p.OW+ox]
					if g == 0 {
						continue
					}
					iy0 := oy*p.StrideH - p.PadH
					ix0 := ox*p.StrideW - p.PadW
					for ic := 0; ic < p.Cin; ic++ {
						for ky := 0; ky < p.KH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= p.H {
								continue
							}
							xBase := ((b*p.Cin+ic)*p.H + iy) * p.W
							wBase := ((oc*p.Cin+ic)*p.KH + ky) * p.KW
							for kx := 0; kx < p.KW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= p.W {
									continue
								}
								dw[wBase+kx] += g * x[xBase+ix]
							}
						}
					}
				}
			}
		}
	}
}

// conv builds a ConvParams, deriving the output dimensions.
func conv(n, cin, h, w, cout, kh, kw, stride, pad int) ConvParams {
	return ConvParams{
		N: n, Cin: cin, H: h, W: w, Cout: cout, KH: kh, KW: kw,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		OH: (h+2*pad-kh)/stride + 1, OW: (w+2*pad-kw)/stride + 1,
	}
}

// stgcnConv is one of STGCN's temporal convolutions at batch 8 over 100
// sensors: a (1,kw) kernel sliding over width timesteps.
func stgcnConv(cin, cout, width, kw int) ConvParams {
	return conv(8, cin, 100, width, cout, 1, kw, 1, 0)
}

var convShapes = []ConvParams{
	{N: 1, Cin: 1, H: 3, W: 3, Cout: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1, OH: 3, OW: 3},
	{N: 2, Cin: 3, H: 5, W: 5, Cout: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, OH: 5, OW: 5},
	{N: 2, Cin: 4, H: 9, W: 7, Cout: 5, KH: 3, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 0, OH: 5, OW: 3},
	// Above the work cutoff: 4*8*16*16*8*3*3 macs >> 1<<15.
	{N: 4, Cin: 8, H: 16, W: 16, Cout: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, OH: 16, OW: 16},
}

// namedConv labels a shape in test and benchmark names.
type namedConv struct {
	name string
	p    ConvParams
}

// stgcnShapes are STGCN's six convolutions (24 channels, Kt 3, window 12):
// the four gated temporal convs, the (1,4) outT and the 1x1 outFC. b1.t1 is
// the Cin=1 tail (its dX GEMM has one row), outFC the Cout=1 tail (its
// forward GEMM has one row).
var stgcnShapes = []namedConv{
	{"b1.t1", stgcnConv(1, 48, 12, 3)},
	{"b1.t2", stgcnConv(24, 48, 10, 3)},
	{"b2.t1", stgcnConv(24, 48, 8, 3)},
	{"b2.t2", stgcnConv(24, 48, 6, 3)},
	{"outT", stgcnConv(24, 24, 4, 4)},
	{"outFC", stgcnConv(24, 1, 1, 1)},
}

// propertyShapes: convShapes, STGCN's shapes, strided padded shapes, and
// shapes whose Cout, Cin or OH·OW leave a remainder mod 4 (the GEMM tails),
// on both sides of the parallel work cutoff.
func propertyShapes() []namedConv {
	shapes := []namedConv{
		{"stride2/pad1", conv(3, 5, 13, 11, 6, 3, 3, 2, 1)},
		{"stride2/pad2", conv(2, 4, 17, 9, 8, 5, 3, 2, 2)},
		{"stride3/pad1", conv(3, 6, 14, 16, 7, 3, 3, 3, 1)},
		{"stride3/pad2", conv(2, 3, 20, 10, 5, 4, 4, 3, 2)},
		{"tails/small", conv(1, 3, 3, 5, 5, 1, 1, 1, 0)},
		{"tails/cout7", conv(5, 6, 9, 7, 7, 3, 3, 1, 1)},
		{"tails/cin5", conv(4, 5, 10, 11, 8, 2, 3, 1, 0)},
		{"tails/cout1", conv(6, 9, 11, 13, 1, 3, 3, 1, 1)},
		{"tails/cin1", conv(6, 1, 11, 13, 9, 3, 3, 1, 1)},
		{"tails/cout2cin3", conv(7, 3, 15, 9, 2, 3, 2, 1, 1)},
	}
	for i, cp := range convShapes {
		shapes = append(shapes, namedConv{fmt.Sprintf("convShapes[%d]", i), cp})
	}
	for _, s := range stgcnShapes {
		shapes = append(shapes, namedConv{"stgcn/" + s.name, s.p})
	}
	return shapes
}

// sparseDY draws an output gradient with ~20% exact zeros, the taps the
// direct nests skipped.
func sparseDY(rng *rand.Rand, n int) []float32 {
	dy := rnd(rng, n)
	for i := range dy {
		if rng.Intn(5) == 0 {
			dy[i] = 0
		}
	}
	return dy
}

func compareBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: index %d: got %v (%#x), oracle %v (%#x)",
				name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestConv2DFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range propertyShapes() {
		name, cp := s.name, s.p
		x := rnd(rng, cp.N*cp.Cin*cp.H*cp.W)
		w := rnd(rng, cp.Cout*cp.Cin*cp.KH*cp.KW)
		dy := sparseDY(rng, cp.N*cp.Cout*cp.OH*cp.OW)

		want := make([]float32, len(dy))
		conv2DOracle(x, w, want, cp)
		wantDX := make([]float32, len(x))
		conv2DGradInputOracle(dy, w, wantDX, cp)
		wantDW := make([]float32, len(w))
		conv2DGradWeightOracle(x, dy, wantDW, cp)

		for _, be := range []Backend{NewSerial(), NewParallel()} {
			tag := name + "/" + be.Name()
			out := make([]float32, len(dy))
			be.Conv2D(x, w, out, cp)
			compareBits(t, tag+"/Conv2D", out, want)

			dx := make([]float32, len(x))
			be.Conv2DGradInput(dy, w, dx, cp)
			compareBits(t, tag+"/Conv2DGradInput", dx, wantDX)

			dw := make([]float32, len(w))
			be.Conv2DGradWeight(x, dy, dw, cp)
			compareBits(t, tag+"/Conv2DGradWeight", dw, wantDW)
		}
	}
}

// TestConv2DNonFinitePropagates pins the documented non-finite semantics:
// the lowered kernels multiply every tap, so an Inf in x or w reaches the
// gradients through zero output gradients and the output through padding,
// as NaN (Inf·0). The direct nests skipped those taps and stayed finite.
func TestConv2DNonFinitePropagates(t *testing.T) {
	cp := conv(2, 3, 6, 5, 5, 3, 3, 1, 1)
	inf := float32(math.Inf(1))
	x := make([]float32, cp.N*cp.Cin*cp.H*cp.W)
	w := make([]float32, cp.Cout*cp.Cin*cp.KH*cp.KW)
	dy := make([]float32, cp.N*cp.Cout*cp.OH*cp.OW) // all zero
	for i := range x {
		x[i] = 1
	}
	for i := range w {
		w[i] = 1
	}
	x[7] = inf
	w[4] = inf // centre tap of filter (0,0): its 3x3 window covers padding at the border
	hasNaN := func(s []float32) bool {
		for _, v := range s {
			if math.IsNaN(float64(v)) {
				return true
			}
		}
		return false
	}
	for _, be := range []Backend{NewSerial(), NewParallel()} {
		dw := make([]float32, len(w))
		be.Conv2DGradWeight(x, dy, dw, cp)
		if !hasNaN(dw) {
			t.Errorf("%s: Conv2DGradWeight with zero dy and Inf in x: want NaN in dw, got %v", be.Name(), dw)
		}
		dx := make([]float32, len(x))
		be.Conv2DGradInput(dy, w, dx, cp)
		if !hasNaN(dx) {
			t.Errorf("%s: Conv2DGradInput with zero dy and Inf in w: want NaN in dx", be.Name())
		}
		wEdge := make([]float32, len(w))
		for i := range wEdge {
			wEdge[i] = 1
		}
		wEdge[0] = inf // top-left tap: lands in the padding for output (0,0)
		out := make([]float32, len(dy))
		be.Conv2D(x, wEdge, out, cp)
		if !math.IsNaN(float64(out[0])) {
			t.Errorf("%s: Conv2D with Inf tap over padding: out[0] = %v, want NaN", be.Name(), out[0])
		}
	}
	// The oracles skip those taps: the difference is the contract change.
	dw := make([]float32, len(w))
	conv2DGradWeightOracle(x, dy, dw, cp)
	if hasNaN(dw) {
		t.Fatal("oracle dW should stay finite with zero dy")
	}
}

// benchConv runs one conv kernel on each of STGCN's shapes, on the serial
// backend and on the direct-nest oracle, reporting allocations.
func benchConv(b *testing.B, run func(x, w, dy, out []float32, p ConvParams, oracle bool)) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range stgcnShapes {
		name, cp := s.name, s.p
		x := rnd(rng, cp.N*cp.Cin*cp.H*cp.W)
		w := rnd(rng, cp.Cout*cp.Cin*cp.KH*cp.KW)
		dy := rnd(rng, cp.N*cp.Cout*cp.OH*cp.OW)
		out := make([]float32, max(len(x), len(w), len(dy)))
		for _, impl := range []string{"gemm", "oracle"} {
			b.Run(name+"/"+impl, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clear(out)
					run(x, w, dy, out, cp, impl == "oracle")
				}
			})
		}
	}
}

func BenchmarkConv2D(b *testing.B) {
	s := NewSerial()
	benchConv(b, func(x, w, dy, out []float32, p ConvParams, oracle bool) {
		out = out[:len(dy)]
		if oracle {
			conv2DOracle(x, w, out, p)
		} else {
			s.Conv2D(x, w, out, p)
		}
	})
}

func BenchmarkConv2DGradInput(b *testing.B) {
	s := NewSerial()
	benchConv(b, func(x, w, dy, out []float32, p ConvParams, oracle bool) {
		out = out[:len(x)]
		if oracle {
			conv2DGradInputOracle(dy, w, out, p)
		} else {
			s.Conv2DGradInput(dy, w, out, p)
		}
	})
}

func BenchmarkConv2DGradWeight(b *testing.B) {
	s := NewSerial()
	benchConv(b, func(x, w, dy, out []float32, p ConvParams, oracle bool) {
		out = out[:len(w)]
		if oracle {
			conv2DGradWeightOracle(x, dy, out, p)
		} else {
			s.Conv2DGradWeight(x, dy, out, p)
		}
	})
}
