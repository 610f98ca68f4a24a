package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gnnmark/internal/backend"
)

// group is the op class a backend call is charged to in the per-layer
// split. The grouping follows the paper's Fig. 2 split of training time by
// operation class, on the host side.
type group uint8

const (
	gConv group = iota
	gGEMM
	gSpMM
	gElementwise
	gNorm
	gGatherScatter
	gReduce
	gOptim
	numGroups
)

var groupNames = [numGroups]string{
	gConv:          "conv",
	gGEMM:          "gemm",
	gSpMM:          "spmm",
	gElementwise:   "elementwise",
	gNorm:          "norm",
	gGatherScatter: "gather_scatter",
	gReduce:        "reduce",
	gOptim:         "optim",
}

// Span kinds besides the backend groups, which use their group index.
const (
	kindRun   = uint8(numGroups) + iota // root of every span
	kindSetup                           // one workload construction
	kindEpoch                           // one training epoch
)

func kindName(k uint8) string {
	switch k {
	case kindRun:
		return "run"
	case kindSetup:
		return "setup"
	case kindEpoch:
		return "epoch"
	}
	return groupNames[k]
}

// span is one recorded interval. Parent indexes the recorder's span list
// (-1 for the run root).
type span struct {
	kind       uint8
	parent     int32
	start, end int64
	flops      float64
}

// recorder keeps spans in memory for the traced run. While off, the only
// cost a backend call pays is one atomic flag load. A nil recorder records
// nothing.
type recorder struct {
	base time.Time
	on   atomic.Bool // read by backend calls; written between them

	mu    sync.Mutex
	spans []span
	open  int32 // innermost open setup/epoch span, parent of backend calls
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	r.spans = append(r.spans, span{kind: kindRun, parent: -1})
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// setOn turns recording on or off; a nil recorder stays off.
func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// push opens a setup or epoch span under the run root; pop closes it.
func (r *recorder) push(kind uint8) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{kind: kind, parent: 0, start: r.now()})
	r.open = int32(len(r.spans) - 1)
	r.mu.Unlock()
}

func (r *recorder) pop() {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans[r.open].end = r.now()
	r.open = 0
	r.mu.Unlock()
}

// finish closes the run root.
func (r *recorder) finish() {
	if r != nil {
		r.spans[0].end = r.now()
	}
}

// begin stamps the start of a backend call; -1 when tracing is off.
func (r *recorder) begin() int64 {
	if !r.on.Load() {
		return -1
	}
	return r.now()
}

// end records a backend call begun at start, with its arithmetic work.
func (r *recorder) end(start int64, g group, flops float64) {
	if start < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{kind: uint8(g), parent: r.open, start: start, end: end, flops: flops})
	r.mu.Unlock()
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one parent never overlap (the engine calls the
// backend from one goroutine), so the covered part is their summed length.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// timedBackend decorates a backend.Backend: every method forwards to the
// wrapped backend unchanged and, while its recorder is on, records one span
// charged to the method's group.
type timedBackend struct {
	in  backend.Backend
	rec *recorder
}

var _ backend.Backend = (*timedBackend)(nil)

func gemmFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }

// convFlops is 2·MACs of the forward convolution, the work each of the
// three conv kernels does.
func convFlops(p backend.ConvParams) float64 {
	return 2 * float64(p.N) * float64(p.Cout) * float64(p.OH) * float64(p.OW) *
		float64(p.Cin) * float64(p.KH) * float64(p.KW)
}

func (b *timedBackend) Name() string { return b.in.Name() }

func (b *timedBackend) MatMul(a, x, out []float32, m, n, k int) {
	t := b.rec.begin()
	b.in.MatMul(a, x, out, m, n, k)
	b.rec.end(t, gGEMM, gemmFlops(m, n, k))
}

func (b *timedBackend) MatMulTA(a, x, out []float32, m, n, k int) {
	t := b.rec.begin()
	b.in.MatMulTA(a, x, out, m, n, k)
	b.rec.end(t, gGEMM, gemmFlops(m, n, k))
}

func (b *timedBackend) MatMulTB(a, x, out []float32, m, n, k int) {
	t := b.rec.begin()
	b.in.MatMulTB(a, x, out, m, n, k)
	b.rec.end(t, gGEMM, gemmFlops(m, n, k))
}

func (b *timedBackend) SpMM(rowPtr, colIdx []int32, vals []float32, x, out []float32, rows, f int) {
	t := b.rec.begin()
	b.in.SpMM(rowPtr, colIdx, vals, x, out, rows, f)
	b.rec.end(t, gSpMM, 2*float64(len(colIdx))*float64(f))
}

func (b *timedBackend) Conv2D(x, w, out []float32, p backend.ConvParams) {
	t := b.rec.begin()
	b.in.Conv2D(x, w, out, p)
	b.rec.end(t, gConv, convFlops(p))
}

func (b *timedBackend) Conv2DGradInput(dy, w, dx []float32, p backend.ConvParams) {
	t := b.rec.begin()
	b.in.Conv2DGradInput(dy, w, dx, p)
	b.rec.end(t, gConv, convFlops(p))
}

func (b *timedBackend) Conv2DGradWeight(x, dy, dw []float32, p backend.ConvParams) {
	t := b.rec.begin()
	b.in.Conv2DGradWeight(x, dy, dw, p)
	b.rec.end(t, gConv, convFlops(p))
}

func (b *timedBackend) MaxPool2D(x, out []float32, arg []int32, n, c, h, w, k int) {
	t := b.rec.begin()
	b.in.MaxPool2D(x, out, arg, n, c, h, w, k)
	b.rec.end(t, gReduce, 0)
}

func (b *timedBackend) ScatterAdd(dst, src []float32, idx []int32) {
	t := b.rec.begin()
	b.in.ScatterAdd(dst, src, idx)
	b.rec.end(t, gGatherScatter, 0)
}

func (b *timedBackend) GatherRows(x, out []float32, idx []int32, f int) {
	t := b.rec.begin()
	b.in.GatherRows(x, out, idx, f)
	b.rec.end(t, gGatherScatter, 0)
}

func (b *timedBackend) ScatterAddRows(dst, src []float32, idx []int32, f int) {
	t := b.rec.begin()
	b.in.ScatterAddRows(dst, src, idx, f)
	b.rec.end(t, gGatherScatter, 0)
}

func (b *timedBackend) SumAll(x []float32) float64 {
	t := b.rec.begin()
	s := b.in.SumAll(x)
	b.rec.end(t, gReduce, 0)
	return s
}

func (b *timedBackend) SumRows(x, out []float32, n, f int) {
	t := b.rec.begin()
	b.in.SumRows(x, out, n, f)
	b.rec.end(t, gReduce, 0)
}

func (b *timedBackend) SumCols(x, out []float32, n, f int) {
	t := b.rec.begin()
	b.in.SumCols(x, out, n, f)
	b.rec.end(t, gReduce, 0)
}

func (b *timedBackend) MaxCols(x, out []float32, arg []int32, n, f int) {
	t := b.rec.begin()
	b.in.MaxCols(x, out, arg, n, f)
	b.rec.end(t, gReduce, 0)
}

func (b *timedBackend) Softmax(x, out []float32, n, f int) {
	t := b.rec.begin()
	b.in.Softmax(x, out, n, f)
	b.rec.end(t, gReduce, 0)
}

func (b *timedBackend) LogSoftmax(x, out []float32, n, f int) {
	t := b.rec.begin()
	b.in.LogSoftmax(x, out, n, f)
	b.rec.end(t, gReduce, 0)
}

func (b *timedBackend) Add(out, x, y []float32) {
	t := b.rec.begin()
	b.in.Add(out, x, y)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) Sub(out, x, y []float32) {
	t := b.rec.begin()
	b.in.Sub(out, x, y)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) Mul(out, x, y []float32) {
	t := b.rec.begin()
	b.in.Mul(out, x, y)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) Scale(out, x []float32, s float32) {
	t := b.rec.begin()
	b.in.Scale(out, x, s)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) AddScalar(out, x []float32, s float32) {
	t := b.rec.begin()
	b.in.AddScalar(out, x, s)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) AddScaled(out, x, y []float32, s float32) {
	t := b.rec.begin()
	b.in.AddScaled(out, x, y, s)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) ReLU(out, x []float32) {
	t := b.rec.begin()
	b.in.ReLU(out, x)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) ReLUBackward(out, x, dy []float32) {
	t := b.rec.begin()
	b.in.ReLUBackward(out, x, dy)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) PReLU(out, x []float32, alpha float32) {
	t := b.rec.begin()
	b.in.PReLU(out, x, alpha)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) Sigmoid(out, x []float32) {
	t := b.rec.begin()
	b.in.Sigmoid(out, x)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) Tanh(out, x []float32) {
	t := b.rec.begin()
	b.in.Tanh(out, x)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) Exp(out, x []float32) {
	t := b.rec.begin()
	b.in.Exp(out, x)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) Dropout(x, out, mask []float32, p float32, rng *rand.Rand) {
	t := b.rec.begin()
	b.in.Dropout(x, out, mask, p, rng)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) AddBiasRows(out, x, bias []float32, n, f int) {
	t := b.rec.begin()
	b.in.AddBiasRows(out, x, bias, n, f)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) Transpose2D(out, x []float32, n, f int) {
	t := b.rec.begin()
	b.in.Transpose2D(out, x, n, f)
	b.rec.end(t, gGatherScatter, 0)
}

func (b *timedBackend) Permute4D(x, out []float32, in, perm [4]int) {
	t := b.rec.begin()
	b.in.Permute4D(x, out, in, perm)
	b.rec.end(t, gGatherScatter, 0)
}

func (b *timedBackend) AddChannelBias(out, x, bias []float32, n, c, plane int) {
	t := b.rec.begin()
	b.in.AddChannelBias(out, x, bias, n, c, plane)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) ChannelBiasGrad(dy, out []float32, n, c, plane int) {
	t := b.rec.begin()
	b.in.ChannelBiasGrad(dy, out, n, c, plane)
	b.rec.end(t, gReduce, 0)
}

func (b *timedBackend) BatchNormStats(x, mean, variance []float32, n, f int) {
	t := b.rec.begin()
	b.in.BatchNormStats(x, mean, variance, n, f)
	b.rec.end(t, gNorm, 0)
}

func (b *timedBackend) BatchNormApply(x, mean, variance, gamma, beta, out []float32, n, f int, eps float32) {
	t := b.rec.begin()
	b.in.BatchNormApply(x, mean, variance, gamma, beta, out, n, f, eps)
	b.rec.end(t, gNorm, 0)
}

func (b *timedBackend) BatchNormBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, n, f int, eps float32) {
	t := b.rec.begin()
	b.in.BatchNormBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta, n, f, eps)
	b.rec.end(t, gNorm, 0)
}

func (b *timedBackend) LayerNormForward(x, gamma, beta, out, xhat, invStd []float32, n, f int, eps float32) {
	t := b.rec.begin()
	b.in.LayerNormForward(x, gamma, beta, out, xhat, invStd, n, f, eps)
	b.rec.end(t, gNorm, 0)
}

func (b *timedBackend) LayerNormBackward(xhat, invStd, dy, gamma, dx, dgamma, dbeta []float32, n, f int) {
	t := b.rec.begin()
	b.in.LayerNormBackward(xhat, invStd, dy, gamma, dx, dgamma, dbeta, n, f)
	b.rec.end(t, gNorm, 0)
}

func (b *timedBackend) BatchNorm2D(x, gamma, beta, out, xhat, variance []float32, bs, c, plane int, eps float32) {
	t := b.rec.begin()
	b.in.BatchNorm2D(x, gamma, beta, out, xhat, variance, bs, c, plane, eps)
	b.rec.end(t, gNorm, 0)
}

func (b *timedBackend) BatchNorm2DBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, bs, c, plane int, eps float32) {
	t := b.rec.begin()
	b.in.BatchNorm2DBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta, bs, c, plane, eps)
	b.rec.end(t, gNorm, 0)
}

func (b *timedBackend) GLU4D(x, out, gate []float32, bs, c, plane int) {
	t := b.rec.begin()
	b.in.GLU4D(x, out, gate, bs, c, plane)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) GLU4DBackward(x, gate, dy, dx []float32, bs, c, plane int) {
	t := b.rec.begin()
	b.in.GLU4DBackward(x, gate, dy, dx, bs, c, plane)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) LSTMCellForward(gates, cPrev, gi, gf, gg, go_, cNew, h []float32, bs, hd int) {
	t := b.rec.begin()
	b.in.LSTMCellForward(gates, cPrev, gi, gf, gg, go_, cNew, h, bs, hd)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) LSTMCellBackward(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev []float32, bs, hd int) {
	t := b.rec.begin()
	b.in.LSTMCellBackward(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev, bs, hd)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) BCEWithLogits(logits, targets, out []float32) {
	t := b.rec.begin()
	b.in.BCEWithLogits(logits, targets, out)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) BCEWithLogitsBackward(logits, targets, dx []float32, g float32) {
	t := b.rec.begin()
	b.in.BCEWithLogitsBackward(logits, targets, dx, g)
	b.rec.end(t, gElementwise, 0)
}

func (b *timedBackend) SGDStep(p, g, buf []float32, lr, momentum, weightDecay float32) {
	t := b.rec.begin()
	b.in.SGDStep(p, g, buf, lr, momentum, weightDecay)
	b.rec.end(t, gOptim, 0)
}

func (b *timedBackend) AdamStep(p, g, m, v []float32, lr, beta1, beta2, eps float32, step int) {
	t := b.rec.begin()
	b.in.AdamStep(p, g, m, v, lr, beta1, beta2, eps, step)
	b.rec.end(t, gOptim, 0)
}
