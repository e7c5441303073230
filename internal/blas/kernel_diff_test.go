package blas

// Differential test of the packed kernels: random shapes, strides,
// transposes and alpha/beta through GEMM, SYRK and SYR2K in both
// precisions, run on the asm tile (when the build has one) at 1..4 threads
// and on the 4×4 fallback, each checked against the naive reference. Plus
// the tile-dispatch contracts: per-precision default tile, zero
// allocations, and bounds checks before the asm reads a panel.

import (
	"math"
	"math/rand"
	"testing"
)

const (
	diffGEMM = iota
	diffSYRK
	diffSYR2K
)

// diffCase is one draw of the differential test. prm leaves the tile zero
// (the precision's asm tile); the fallback run pins 4×4 on the same blocks.
type diffCase struct {
	op             int
	m, k, n        int
	transA, transB bool
	alpha, beta    float64
	extra          int // stride padding of every operand
	prm            Params
}

// diffDim draws a dimension around tile edge r: 1..3, r±1, 2r±1, or a
// random odd or even size.
func diffDim(rng *rand.Rand, r int) int {
	switch rng.Intn(6) {
	case 0:
		return 1 + rng.Intn(3)
	case 1:
		return r - 1 + rng.Intn(3)
	case 2:
		return 2*r - 1 + 2*rng.Intn(2)
	case 3:
		return 2*rng.Intn(35) + 1
	default:
		return 1 + rng.Intn(70)
	}
}

// drawDiffCase draws one case. Three in four run small random blocking so
// MC/KC/NC edges land inside the drawn dimensions; the rest run the default
// blocking with one dimension straddling its MC, KC or (GEMM only) NC.
func drawDiffCase(rng *rand.Rand, op, i int, at tile) diffCase {
	scalars := []float64{0, 1, -0.5}
	cs := diffCase{
		op:     op,
		transA: rng.Intn(2) == 1,
		transB: rng.Intn(2) == 1,
		alpha:  scalars[rng.Intn(3)],
		beta:   scalars[rng.Intn(3)],
		extra:  3 * rng.Intn(3),
	}
	if i%4 == 3 {
		d := DefaultParams()
		cs.prm = d
		cs.m, cs.k, cs.n = 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		edges := 3
		if op != diffGEMM {
			edges = 2 // an n×n output at NC would be needlessly large
		}
		switch rng.Intn(edges) {
		case 0:
			cs.m = d.MC - 1 + rng.Intn(3)
		case 1:
			cs.k = d.KC - 1 + rng.Intn(3)
		default:
			cs.n = d.NC - 1 + rng.Intn(3)
		}
	} else {
		cs.prm = Params{MC: 8 * (1 + rng.Intn(3)), KC: 1 + rng.Intn(12), NC: 8 * (1 + rng.Intn(3))}
		cs.m, cs.n = diffDim(rng, at.mr), diffDim(rng, at.nr)
		cs.k = []int{1, 2, 3, 2*rng.Intn(30) + 1, 1 + rng.Intn(64)}[rng.Intn(5)]
	}
	if op != diffGEMM {
		cs.n = cs.m
	}
	return cs
}

// diffView returns an r×c view with the given stride padding: logical
// values uniform in [-1, 1), padding set to a sentinel.
func diffView[T float32 | float64](r, c, extra int, rng *rand.Rand) view[T] {
	v := view[T]{rows: r, cols: c, stride: c + extra, data: make([]T, r*(c+extra))}
	for i := range v.data {
		v.data[i] = T(sentinelF64)
		if i%v.stride < c {
			v.data[i] = T(2*rng.Float64() - 1)
		}
	}
	return v
}

func cloneView[T float32 | float64](v view[T]) view[T] {
	v.data = append([]T(nil), v.data...)
	return v
}

// maxViewDiff is the largest |x - y| over the logical region.
func maxViewDiff[T float32 | float64](x, y view[T]) float64 {
	var d float64
	for i := 0; i < x.rows; i++ {
		for j := 0; j < x.cols; j++ {
			d = math.Max(d, math.Abs(float64(x.at(i, j))-float64(y.at(i, j))))
		}
	}
	return d
}

// bitsEqual reports whether two backing slices hold identical bits,
// padding included.
func bitsEqual[T float32 | float64](x, y []T) bool {
	for i := range x {
		if math.Float64bits(float64(x[i])) != math.Float64bits(float64(y[i])) {
			return false
		}
	}
	return true
}

// dims returns the stored shapes of A and B.
func (cs diffCase) dims() (ar, ac, br, bc int) {
	ar, ac = cs.m, cs.k
	if cs.transA {
		ar, ac = ac, ar
	}
	br, bc = cs.k, cs.n
	if cs.op != diffGEMM {
		br, bc = ar, ac // op(B) has the shape of op(A)
	} else if cs.transB {
		br, bc = bc, br
	}
	return
}

func runDiff[T float32 | float64](ctx *Context, cs diffCase, a, b, c view[T], threads int, prm Params) error {
	alpha, beta := T(cs.alpha), T(cs.beta)
	switch cs.op {
	case diffGEMM:
		return gemmCtx(ctx, cs.transA, cs.transB, alpha, a, b, beta, c, threads, prm)
	case diffSYRK:
		return syrkCtx(ctx, cs.transA, alpha, a, beta, c, threads, prm)
	default:
		return syr2kCtx(ctx, cs.transA, alpha, a, b, beta, c, threads, prm)
	}
}

func refDiff[T float32 | float64](cs diffCase, a, b, c view[T]) {
	alpha, beta := T(cs.alpha), T(cs.beta)
	switch cs.op {
	case diffGEMM:
		naive(cs.transA, cs.transB, alpha, a, b, beta, c)
	case diffSYRK:
		naiveSyrk(cs.transA, alpha, a, beta, c)
	default:
		naiveSyr2k(cs.transA, alpha, a, b, beta, c)
	}
}

// checkDiffCase runs one case: the asm tile at 1..4 threads must agree
// bit for bit, stay within 2·kk²·eps of the naive reference (kk = k, or 2k
// for SYR2K; operands in [-1, 1)) and leave stride padding alone, and the
// 4×4 fallback must land within the same tolerance.
func checkDiffCase[T float32 | float64](t *testing.T, ctx *Context, cs diffCase, eps float64, rng *rand.Rand) {
	t.Helper()
	ar, ac, br, bc := cs.dims()
	a := diffView[T](ar, ac, cs.extra, rng)
	b := diffView[T](br, bc, cs.extra, rng)
	c0 := diffView[T](cs.m, cs.n, cs.extra, rng)
	ref := cloneView(c0)
	refDiff(cs, a, b, ref)
	kk := float64(cs.k)
	if cs.op == diffSYR2K {
		kk *= 2
	}
	tol := 2 * kk * kk * eps

	var one view[T]
	for threads := 1; threads <= 4; threads++ {
		c := cloneView(c0)
		if err := runDiff(ctx, cs, a, b, c, threads, cs.prm); err != nil {
			t.Fatalf("%+v threads=%d: %v", cs, threads, err)
		}
		if threads > 1 {
			if !bitsEqual(c.data, one.data) {
				t.Errorf("%+v: %d threads differ from 1 thread (want bit-identical)", cs, threads)
			}
			continue
		}
		one = c
		if d := maxViewDiff(c, ref); !(d <= tol) {
			t.Errorf("%+v: asm tile max |C - naive| = %g > %g", cs, d, tol)
		}
		for i, v := range c.data {
			if i%c.stride >= c.cols && v != c0.data[i] {
				t.Fatalf("%+v: wrote stride padding at %d", cs, i)
			}
		}
	}
	fb := cloneView(c0)
	prm := cs.prm
	prm.MR, prm.NR = fallbackTile.mr, fallbackTile.nr
	if err := runDiff(ctx, cs, a, b, fb, 1+rng.Intn(4), prm); err != nil {
		t.Fatalf("%+v fallback: %v", cs, err)
	}
	if d := maxViewDiff(fb, one); !(d <= tol) {
		t.Errorf("%+v: asm tile and 4x4 fallback differ by %g > %g", cs, d, tol)
	}
}

func diffRun[T float32 | float64](t *testing.T, seed int64, eps float64) {
	at := asmTile[T]()
	if at == (tile{}) {
		t.Log("no asm tile in this build: both runs use the 4x4 fallback")
		at = fallbackTile
	}
	cases := 48
	if testing.Short() {
		cases = 16
	}
	rng := rand.New(rand.NewSource(seed))
	ctx := NewContext()
	defer ctx.Close()
	for i := 0; i < cases; i++ {
		for op := diffGEMM; op <= diffSYR2K; op++ {
			checkDiffCase[T](t, ctx, drawDiffCase(rng, op, i, at), eps, rng)
		}
	}
	// Row counts at the MR-band and MC-chunk edges of the default blocking,
	// where the parallel row split puts its part boundaries (draw index 3
	// selects the default blocking).
	mc := DefaultParams().MC
	for _, m := range []int{at.mr - 1, at.mr, at.mr + 1, mc - 1, mc + 1, 2*mc + at.mr} {
		for op := diffGEMM; op <= diffSYR2K; op++ {
			cs := drawDiffCase(rng, op, 3, at)
			cs.m = m
			if op != diffGEMM {
				cs.n = m
			}
			checkDiffCase[T](t, ctx, cs, eps, rng)
		}
	}
}

func TestKernelDifferential(t *testing.T) {
	forcePath(t, forcePacked)
	t.Run("f32", func(t *testing.T) { diffRun[float32](t, 50, 0x1p-23) })
	t.Run("f64", func(t *testing.T) { diffRun[float64](t, 51, 0x1p-52) })
}

// TestDefaultTilePerPrecision pins the tile choice: default-blocking calls
// run the precision's asm tile when the build has one, else 4×4, while
// explicit 4×4 stays 4×4.
func TestDefaultTilePerPrecision(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  func(Params) (Params, bool, error)
		asm  tile
	}{
		{"f32", resolveParams[float32], asmTileF32},
		{"f64", resolveParams[float64], asmTileF64},
	} {
		want := tc.asm
		if want == (tile{}) {
			want = fallbackTile
		}
		p, isDefault, err := tc.got(DefaultParams())
		if err != nil || !isDefault || (tile{p.MR, p.NR}) != want {
			t.Errorf("%s default: tile %dx%d default=%v err=%v, want %dx%d", tc.name, p.MR, p.NR, isDefault, err, want.mr, want.nr)
		}
		pin := DefaultParams()
		pin.MR, pin.NR = 4, 4
		if p, isDefault, err := tc.got(pin); err != nil || isDefault || p != pin {
			t.Errorf("%s pinned 4x4: got %+v default=%v err=%v", tc.name, p, isDefault, err)
		}
	}
}

// TestMicroTileZeroAlloc pins the zero-allocation contract of the tile
// dispatch and the asm wrappers for every tile of both precisions.
func TestMicroTileZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	microTileAllocs[float32](t)
	microTileAllocs[float64](t)
}

func microTileAllocs[T float32 | float64](t *testing.T) {
	const kc = 16
	a := make([]T, kc*8)
	b := make([]T, kc*8)
	var acc [maxTile]T
	for _, tl := range tilesOf[T]() {
		if allocs := testing.AllocsPerRun(20, func() { microTile(a, b, kc, &acc, tl[0]) }); allocs != 0 {
			t.Errorf("microTile %dx%d: %v allocs/op, want 0", tl[0], tl[1], allocs)
		}
	}
}

// TestAsmPanelBoundsChecked feeds the asm tile panels one element short:
// the Go wrapper must panic before the asm reads past them.
func TestAsmPanelBoundsChecked(t *testing.T) {
	short := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: short panel did not panic", name)
			}
		}()
		f()
	}
	const kc = 5
	if at := asmTileF32; at != (tile{}) {
		var acc [maxTile]float32
		full := make([]float32, kc*8)
		short("f32 A", func() { microTile(full[1:], full, kc, &acc, at.mr) })
		short("f32 B", func() { microTile(full, full[1:], kc, &acc, at.mr) })
	}
	if at := asmTileF64; at != (tile{}) {
		var acc [maxTile]float64
		full := make([]float64, kc*8)
		short("f64 A", func() { microTile(full[1:], full, kc, &acc, at.mr) })
		short("f64 B", func() { microTile(full, full[kc*4+1:], kc, &acc, at.mr) })
	}
}
