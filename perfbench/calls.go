package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"

	adsala "repro"
	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/ops"
	"repro/internal/sampling"
)

// method is one of the six BLAS-3 entry points of adsala.BLAS.
type method uint8

const (
	sgemm method = iota
	dgemm
	ssyrk
	dsyrk
	ssyr2k
	dsyr2k
	numMethods
)

var methodInfo = [numMethods]struct {
	name   string
	op     ops.Op
	double bool
}{
	sgemm:  {"SGEMM", ops.GEMM, false},
	dgemm:  {"DGEMM", ops.GEMM, true},
	ssyrk:  {"SSYRK", ops.SYRK, false},
	dsyrk:  {"DSYRK", ops.SYRK, true},
	ssyr2k: {"SSYR2K", ops.SYR2K, false},
	dsyr2k: {"DSYR2K", ops.SYR2K, true},
}

// spec is one distinct stream call: the entry point, the transpose flags
// and the op's canonical (m, k, n) feature triple. All calls use alpha = 1
// and beta = 0, so repeating a call rewrites the same C.
type spec struct {
	meth           method
	transA, transB bool // transB is used by GEMM only
	m, k, n        int
}

func (s spec) op() ops.Op     { return methodInfo[s.meth].op }
func (s spec) flops() float64 { return s.op().Spec().Flops(s.m, s.k, s.n) }
func (s spec) isDouble() bool { return methodInfo[s.meth].double }
func (s spec) isGEMM() bool   { return s.op() == ops.GEMM }

func (s spec) String() string {
	return fmt.Sprintf("%s %dx%dx%d transA=%v transB=%v", methodInfo[s.meth].name, s.m, s.k, s.n, s.transA, s.transB)
}

// reduction is the number of products summed into each output element.
func (s spec) reduction() int {
	if s.op() == ops.SYR2K {
		return 2 * s.k
	}
	return s.k
}

// eps is the unit roundoff of the call's precision.
func (s spec) eps() float64 {
	if s.isDouble() {
		return 0x1p-52
	}
	return 0x1p-23
}

// streamShape selects the mix of a stream. Calls are stratified in two
// dimensions: levels log-spaced FLOP counts between lo and hi (each call
// within ±tol of its level), and, within a level, buckets of skinniness —
// how small the smallest dimension is, relative to the range the level
// allows. Each entry point gets one call per (level, bucket). The seed
// changes every shape, but hardly the mix of sizes and aspects, which
// would otherwise move a stream's GFLOP/s from seed to seed.
type streamShape struct {
	lo, hi  float64 // FLOP range; hi is capped at the op's domain maximum
	levels  int
	buckets int
	tol     float64
}

var (
	// smallStream: 16 levels from 1 kFLOP to 2·128³ (µs to ~2 ms per
	// call) × 3 buckets × 6 entry points = 288 calls.
	smallStream = streamShape{lo: 1 << 10, hi: 2 * 128 * 128 * 128, levels: 16, buckets: 3, tol: 0.03}
	// largeStream: 4 levels from 2·256³ to 2·640³ FLOPs (10–100 ms per
	// call) × 2 buckets × 6 entry points = 48 calls.
	largeStream = streamShape{lo: 2 * 256 * 256 * 256, hi: 2 * 640 * 640 * 640, levels: 4, buckets: 2, tol: 0.03}
)

// cellDraws is how many draws may go into filling every (level, bucket)
// cell of an entry point before a level takes any bucket: a few cells
// (the skinniest shapes of the smallest levels) admit no integer shape.
const cellDraws = 2_000_000

// workloadSeed derives the Halton scramble seed of one entry point's draws
// from the workload seed; it is kept clear of the training seed.
func workloadSeed(seed int64, m method) int64 { return 1<<20 + seed*int64(numMethods) + int64(m) }

// cell returns the (level, bucket) of a canonical shape, or ok = false
// when its FLOP count is not within tol of a level.
func (sh streamShape) cell(op ops.Op, hi float64, maxDim int, s sampling.Shape) (level, bucket int, ok bool) {
	span := math.Log(hi / sh.lo)
	x := math.Log(op.Spec().Flops(s.M, s.K, s.N)/sh.lo) / span * float64(sh.levels)
	level = int(math.Round(x - 0.5))
	if level < 0 || level >= sh.levels || math.Abs(x-0.5-float64(level))*span/float64(sh.levels) > sh.tol {
		return 0, 0, false
	}
	// Skinniness: log(min dim) against log of the cube side, rescaled to
	// [0, 1] over the range the domain allows at this volume.
	vol := float64(s.M) * float64(s.K) * float64(s.N)
	side := math.Log(vol) / 3
	if side <= 0 {
		return level, 0, true
	}
	lowest := math.Max(0, math.Log(vol/float64(maxDim)/float64(maxDim)))
	r := (math.Log(float64(min(s.M, s.K, s.N))) - lowest) / (side - lowest)
	return level, min(int(r*float64(sh.buckets)), sh.buckets-1), true
}

// buildSpecs draws the distinct calls of a stream from the local training
// domain, holding out the shapes the table trained on.
func buildSpecs(sh streamShape, seed int64, heldOut map[ops.Op]map[sampling.Shape]bool) ([]spec, error) {
	dom := localGather(runtime.GOMAXPROCS(0)).Domain
	var out []spec
	for m := method(0); m < numMethods; m++ {
		ws := workloadSeed(seed, m)
		if ws == trainSeed {
			return nil, fmt.Errorf("workload seed %d collides with the training seed", seed)
		}
		sampler, err := sampling.NewSampler(dom, ws)
		if err != nil {
			return nil, err
		}
		op := methodInfo[m].op
		reg := op.Spec()
		top := reg.Canon(sampling.Shape{M: dom.MaxDim, K: dom.MaxDim, N: dom.MaxDim})
		hi := math.Min(sh.hi, reg.Flops(top.M, top.K, top.N))
		cells := make([]bool, sh.levels*sh.buckets)
		perLevel := make([]int, sh.levels)
		seen := make(map[sampling.Shape]bool)
		rng := rand.New(rand.NewSource(ws))
		for draws, need := 0, len(cells); need > 0; draws++ {
			if draws == 10*cellDraws {
				return nil, fmt.Errorf("%s: %d stream calls still undrawn after %d draws", methodInfo[m].name, need, draws)
			}
			s := reg.Canon(sampler.Next())
			level, bucket, ok := sh.cell(op, hi, dom.MaxDim, s)
			if !ok || seen[s] || heldOut[op][s] || perLevel[level] == sh.buckets {
				continue
			}
			c := level*sh.buckets + bucket
			if cells[c] {
				if draws < cellDraws {
					continue
				}
				// Past the cell budget, any free bucket of the level takes it.
				for c = level * sh.buckets; cells[c]; c++ {
				}
			}
			cells[c] = true
			perLevel[level]++
			need--
			seen[s] = true
			out = append(out, spec{meth: m, transA: rng.Intn(2) == 1, transB: op == ops.GEMM && rng.Intn(2) == 1, m: s.M, k: s.K, n: s.N})
		}
	}
	// Interleave entry points and sizes: a seeded shuffle of the call order.
	rng := rand.New(rand.NewSource(workloadSeed(seed, numMethods)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// call is a spec with its operands allocated.
type call struct {
	spec
	a32, b32, c32 *mat.F32
	a64, b64, c64 *mat.F64
}

// operandDims returns the stored (rows, cols) of A (and B) and of C.
func (s spec) operandDims() (ar, ac, br, bc, cr, cc int) {
	if s.isGEMM() {
		ar, ac = s.m, s.k
		if s.transA {
			ar, ac = s.k, s.m
		}
		br, bc = s.k, s.n
		if s.transB {
			br, bc = s.n, s.k
		}
		return ar, ac, br, bc, s.m, s.n
	}
	ar, ac = s.m, s.k
	if s.transA {
		ar, ac = s.k, s.m
	}
	return ar, ac, ar, ac, s.m, s.m
}

// inputPools hold the random, read-only inputs every call of a stream
// reads: a call's A (B) is the first rows×cols values of the A (B) pool of
// its precision. Each call writes its own C, so a stream's memory is its
// outputs plus four pools of the largest operand.
type inputPools struct {
	a32, b32 *mat.F32
	a64, b64 *mat.F64
}

func newInputPools(maxDim int, rng *rand.Rand) inputPools {
	p := inputPools{mat.NewF32(maxDim, maxDim), mat.NewF32(maxDim, maxDim), mat.NewF64(maxDim, maxDim), mat.NewF64(maxDim, maxDim)}
	p.a32.FillRandom(rng)
	p.b32.FillRandom(rng)
	p.a64.FillRandom(rng)
	p.b64.FillRandom(rng)
	return p
}

func view32(pool *mat.F32, rows, cols int) *mat.F32 {
	return &mat.F32{Rows: rows, Cols: cols, Stride: cols, Data: pool.Data[:rows*cols]}
}

func view64(pool *mat.F64, rows, cols int) *mat.F64 {
	return &mat.F64{Rows: rows, Cols: cols, Stride: cols, Data: pool.Data[:rows*cols]}
}

// newCall binds one spec to inputs from the pools and a fresh C (SYRK
// reads A only).
func newCall(s spec, p inputPools) *call {
	c := &call{spec: s}
	ar, ac, br, bc, _, _ := s.operandDims()
	needB := s.op() != ops.SYRK
	c.c32, c.c64 = c.freshC()
	if s.isDouble() {
		c.a64 = view64(p.a64, ar, ac)
		if needB {
			c.b64 = view64(p.b64, br, bc)
		}
	} else {
		c.a32 = view32(p.a32, ar, ac)
		if needB {
			c.b32 = view32(p.b32, br, bc)
		}
	}
	return c
}

// newCalls allocates the inputs and outputs of every spec from the
// workload seed.
func newCalls(specs []spec, seed int64) []*call {
	pools := newInputPools(localGather(runtime.GOMAXPROCS(0)).Domain.MaxDim, rand.New(rand.NewSource(seed)))
	out := make([]*call, len(specs))
	for i, s := range specs {
		out[i] = newCall(s, pools)
	}
	return out
}

// viaFacade runs the call through the public adsala.BLAS entry point: the
// model picks the thread count.
func (c *call) viaFacade(b *adsala.BLAS) error {
	switch c.meth {
	case sgemm:
		return b.SGEMM(c.transA, c.transB, 1, c.a32, c.b32, 0, c.c32)
	case dgemm:
		return b.DGEMM(c.transA, c.transB, 1, c.a64, c.b64, 0, c.c64)
	case ssyrk:
		return b.SSYRK(c.transA, 1, c.a32, 0, c.c32)
	case dsyrk:
		return b.DSYRK(c.transA, 1, c.a64, 0, c.c64)
	case ssyr2k:
		return b.SSYR2K(c.transA, 1, c.a32, c.b32, 0, c.c32)
	default:
		return b.DSYR2K(c.transA, 1, c.a64, c.b64, 0, c.c64)
	}
}

// kernelInto runs the call on the internal/blas kernel at a fixed thread
// count, writing into the given C (c32 or c64 by precision).
func (c *call) kernelInto(threads int, c32 *mat.F32, c64 *mat.F64) error {
	switch c.meth {
	case sgemm:
		return blas.SGEMM(c.transA, c.transB, 1, c.a32, c.b32, 0, c32, threads)
	case dgemm:
		return blas.DGEMM(c.transA, c.transB, 1, c.a64, c.b64, 0, c64, threads)
	case ssyrk:
		return blas.SSYRK(c.transA, 1, c.a32, 0, c32, threads)
	case dsyrk:
		return blas.DSYRK(c.transA, 1, c.a64, 0, c64, threads)
	case ssyr2k:
		return blas.SSYR2K(c.transA, 1, c.a32, c.b32, 0, c32, threads)
	default:
		return blas.DSYR2K(c.transA, 1, c.a64, c.b64, 0, c64, threads)
	}
}

// kernel runs the call on the internal/blas kernel into its own C.
func (c *call) kernel(threads int) error { return c.kernelInto(threads, c.c32, c.c64) }

// naiveInto runs the internal/blas naive reference into the given C.
func (c *call) naiveInto(c32 *mat.F32, c64 *mat.F64) {
	switch c.meth {
	case sgemm:
		blas.NaiveSGEMM(c.transA, c.transB, 1, c.a32, c.b32, 0, c32)
	case dgemm:
		blas.NaiveDGEMM(c.transA, c.transB, 1, c.a64, c.b64, 0, c64)
	case ssyrk:
		blas.NaiveSSYRK(c.transA, 1, c.a32, 0, c32)
	case dsyrk:
		blas.NaiveDSYRK(c.transA, 1, c.a64, 0, c64)
	case ssyr2k:
		blas.NaiveSSYR2K(c.transA, 1, c.a32, c.b32, 0, c32)
	default:
		blas.NaiveDSYR2K(c.transA, 1, c.a64, c.b64, 0, c64)
	}
}

// freshC allocates a zeroed C of the call's shape and precision.
func (c *call) freshC() (*mat.F32, *mat.F64) {
	_, _, _, _, cr, cc := c.spec.operandDims()
	if c.isDouble() {
		return nil, mat.NewF64(cr, cc)
	}
	return mat.NewF32(cr, cc), nil
}

// digest hashes the bits of a C matrix.
func digest(c32 *mat.F32, c64 *mat.F64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	if c64 != nil {
		for _, v := range c64.Data {
			b := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	for _, v := range c32.Data {
		b := math.Float32bits(v)
		for i := 0; i < 4; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:4])
	}
	return h.Sum64()
}

// check verifies the call's current output: bit-identical to the kernel
// run at 1 thread, and within a k-scaled tolerance of the naive reference.
// With operands in [-1, 1), alpha = 1 and beta = 0, each element is a sum
// of kk products of magnitude ≤ 1, so its rounding error is bounded by
// kk·eps·kk; the check allows twice that.
func (c *call) check() error {
	one32, one64 := c.freshC()
	if err := c.kernelInto(1, one32, one64); err != nil {
		return fmt.Errorf("%v: 1-thread kernel: %w", c.spec, err)
	}
	if digest(one32, one64) != digest(c.c32, c.c64) {
		return fmt.Errorf("%v: output differs from the 1-thread result", c.spec)
	}
	ref32, ref64 := c.freshC()
	c.naiveInto(ref32, ref64)
	kk := float64(c.reduction())
	tol := 2 * kk * kk * c.eps()
	var diff float64
	if c.isDouble() {
		diff = c.c64.MaxAbsDiff(ref64)
	} else {
		diff = c.c32.MaxAbsDiff(ref32)
	}
	if !(diff <= tol) {
		return fmt.Errorf("%v: max |C - naive| = %g exceeds tolerance %g", c.spec, diff, tol)
	}
	return nil
}

// checkAll checks every call once, on GOMAXPROCS goroutines, and returns
// the failures.
func checkAll(calls []*call) []error {
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = calls[i].check()
			}
		}()
	}
	for i := range calls {
		next <- i
	}
	close(next)
	wg.Wait()
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}
