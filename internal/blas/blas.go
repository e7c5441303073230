// Package blas implements the level-3 GEMM routine (C ← αAB + βC) in pure
// Go, following the BLIS five-loop blocked-and-packed design: the operand
// matrices are partitioned into cache-sized panels (NC/KC/MC), panels are
// packed into contiguous buffers, and an MR×NR register micro-kernel performs
// the innermost rank-KC update. A persistent worker team parallelises the
// packing and MC loops, mirroring how MKL/BLIS thread the same loops with an
// OpenMP thread pool.
//
// The package plays the role of the paper's vendor BLAS: ADSALA treats it as
// a black box whose only tunable is the thread count. Its cost structure —
// fork/join (here: team wakeups), per-panel packing copies, per-iteration
// barriers and the FLOP kernel — is exactly the decomposition the paper's
// VTune profiling reports in Table VII.
//
// Execution state (packed-panel buffers, the worker team) lives in a
// Context. The package-level entry points draw Contexts from an internal
// pool, so steady-state calls are allocation-free; callers with a hot loop
// can hold their own Context instead.
package blas

import (
	"fmt"

	"repro/internal/mat"
)

// Params holds the blocking parameters of the five-loop algorithm.
type Params struct {
	MC, KC, NC int // cache block sizes (rows of A, depth, cols of B)
	// MR×NR is the register micro-tile: the 4×4 fallback or the precision's
	// asm tile (see kernel.go). Zero for both picks, per call, the asm tile
	// when this CPU has one and the fallback otherwise.
	MR, NR int
}

// DefaultParams returns the default blocking. Its micro-tile is picked per
// precision, and calls made with exactly these parameters — every call
// without explicit Params — may take the small-shape path.
//
// The blocks were re-measured for the 8×8 asm tile with
// BenchmarkBlockingParams (256³ SGEMM, 1 thread, median of 3, on a 2-vCPU
// Intel Xeon with AVX2/FMA/AVX-512F, Go 1.24): MC/KC/NC 128/256/2048
// reached 44.5 GFLOP/s; MC 64 or 256 gave 37.6 and 36.4, KC 128 or 512
// gave 35.8 and 31.7, and 64/512/1024 gave 40.9. None beat the default, so
// it stays: the MC×KC A block (128 KiB FP32, 256 KiB FP64) sits in L2 and
// each 8 KiB KC×NR B micro-panel in L1.
func DefaultParams() Params {
	return Params{MC: 128, KC: 256, NC: 2048}
}

// resolveParams returns the parameters a call of precision T runs with,
// and whether they are the default blocking. The tile must be one of T's.
func resolveParams[T float32 | float64](p Params) (Params, bool, error) {
	f32, f64 := asmTileF32, tile{}
	if !isF32[T]() {
		f32, f64 = tile{}, asmTileF64
	}
	q := p.withTile(asmTile[T]())
	return q, p == DefaultParams(), q.validate(f32, f64)
}

// withTile fills a zero micro-tile with t, or with the fallback when t is
// the zero tile.
func (p Params) withTile(t tile) Params {
	if p.MR == 0 && p.NR == 0 {
		if t == (tile{}) {
			t = fallbackTile
		}
		p.MR, p.NR = t.mr, t.nr
	}
	return p
}

// Validate reports whether the parameters can drive the packed kernel. The
// micro-tile must be the 4×4 fallback, or on a CPU with AVX2+FMA an asm
// tile: 8×8 for FP32 calls only, 8×4 for FP64 calls only. A zero tile must
// fit the blocking of every precision's pick.
func (p Params) Validate() error {
	if err := p.withTile(asmTileF32).validate(asmTileF32, asmTileF64); err != nil {
		return err
	}
	return p.withTile(asmTileF64).validate(asmTileF32, asmTileF64)
}

// validate checks p against the fallback tile plus the FP32 and FP64 asm
// tiles given (a zero tile stands for none).
func (p Params) validate(f32, f64 tile) error {
	if p.MC < 1 || p.KC < 1 || p.NC < 1 {
		return fmt.Errorf("blas: non-positive block sizes %+v", p)
	}
	if t := (tile{p.MR, p.NR}); t != fallbackTile && t != f32 && t != f64 {
		s := "4x4 fallback"
		if f32 != (tile{}) {
			s += fmt.Sprintf(", %dx%d FP32 asm", f32.mr, f32.nr)
		}
		if f64 != (tile{}) {
			s += fmt.Sprintf(", %dx%d FP64 asm", f64.mr, f64.nr)
		}
		return fmt.Errorf("blas: micro-tile %dx%d unsupported (have %s)", p.MR, p.NR, s)
	}
	if p.MC%p.MR != 0 {
		return fmt.Errorf("blas: MC=%d must be a multiple of MR=%d", p.MC, p.MR)
	}
	if p.NC%p.NR != 0 {
		return fmt.Errorf("blas: NC=%d must be a multiple of NR=%d", p.NC, p.NR)
	}
	return nil
}

// SGEMM computes C ← alpha·op(A)·op(B) + beta·C in single precision using
// the given number of worker goroutines (threads < 1 is treated as 1).
// op(A) is A when transA is false and Aᵀ otherwise; likewise for B.
// Dimension compatibility follows the BLAS convention: with m×k = op(A),
// k×n = op(B), C must be m×n. The call runs on a pooled Context and
// allocates nothing in steady state.
func SGEMM(transA, transB bool, alpha float32, a *mat.F32, b *mat.F32, beta float32, c *mat.F32, threads int) error {
	ctx := ctxPool.Get().(*Context)
	// Deferred so a panicking inner call (indexing bug, corrupted operand
	// headers) does not leak the pooled context and its worker team.
	defer ctxPool.Put(ctx)
	return ctx.SGEMM(transA, transB, alpha, a, b, beta, c, threads)
}

// DGEMM is the double-precision counterpart of SGEMM.
func DGEMM(transA, transB bool, alpha float64, a *mat.F64, b *mat.F64, beta float64, c *mat.F64, threads int) error {
	ctx := ctxPool.Get().(*Context)
	defer ctxPool.Put(ctx)
	return ctx.DGEMM(transA, transB, alpha, a, b, beta, c, threads)
}

// SGEMMWithParams is SGEMM with explicit blocking parameters; it exists for
// the blocking-parameter benchmarks and for pinning the micro-tile.
func SGEMMWithParams(transA, transB bool, alpha float32, a *mat.F32, b *mat.F32, beta float32, c *mat.F32, threads int, p Params) error {
	ctx := ctxPool.Get().(*Context)
	defer ctxPool.Put(ctx)
	return ctx.SGEMMWithParams(transA, transB, alpha, a, b, beta, c, threads, p)
}

// DGEMMWithParams is DGEMM with explicit blocking parameters.
func DGEMMWithParams(transA, transB bool, alpha float64, a *mat.F64, b *mat.F64, beta float64, c *mat.F64, threads int, p Params) error {
	ctx := ctxPool.Get().(*Context)
	defer ctxPool.Put(ctx)
	return ctx.DGEMMWithParams(transA, transB, alpha, a, b, beta, c, threads, p)
}

// view is a type-parameterised matrix header over a flat backing slice.
type view[T float32 | float64] struct {
	rows, cols, stride int
	data               []T
}

func (v view[T]) at(i, j int) T { return v.data[i*v.stride+j] }

// opDims returns the dimensions of op(X).
func opDims[T float32 | float64](v view[T], trans bool) (rows, cols int) {
	if trans {
		return v.cols, v.rows
	}
	return v.rows, v.cols
}

// opAt reads element (i, j) of op(X).
func opAt[T float32 | float64](v view[T], trans bool, i, j int) T {
	if trans {
		return v.at(j, i)
	}
	return v.at(i, j)
}

func errInnerDims(m, ka, kb, n int) error {
	return fmt.Errorf("blas: inner dimensions differ: op(A) is %dx%d, op(B) is %dx%d", m, ka, kb, n)
}

func errCDims(rows, cols, m, n int) error {
	return fmt.Errorf("blas: C is %dx%d, want %dx%d", rows, cols, m, n)
}

// scaleC applies C ← beta·C.
func scaleC[T float32 | float64](c view[T], beta T) {
	for i := 0; i < c.rows; i++ {
		row := c.data[i*c.stride : i*c.stride+c.cols]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		if beta != 1 {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
