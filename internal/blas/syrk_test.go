package blas

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mat"
)

// syrkRef computes the SYRK reference via NaiveSGEMM against Aᵀ.
func syrkRef(trans bool, alpha float32, a *mat.F32, beta float32, c *mat.F32) {
	NaiveSGEMM(trans, !trans, alpha, a, a, beta, c)
}

// symmetrise copies the lower triangle into the upper so the full-GEMM
// reference and the lower-triangle SYRK agree on the beta update.
func symmetrise(c *mat.F32) {
	for i := 0; i < c.Rows; i++ {
		for j := i + 1; j < c.Cols; j++ {
			c.Set(i, j, c.At(j, i))
		}
	}
}

func TestSSYRKMatchesGEMMReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n, k    int
		trans   bool
		threads int
	}{
		{5, 7, false, 1}, {16, 4, false, 3}, {33, 17, false, 4},
		{9, 12, true, 2}, {25, 25, true, 5}, {1, 1, false, 1},
		// Large enough to take the packed path under default params.
		{70, 40, false, 3}, {70, 40, true, 2},
	} {
		var a *mat.F32
		if tc.trans {
			a = randF32(tc.k, tc.n, rng)
		} else {
			a = randF32(tc.n, tc.k, rng)
		}
		c := randF32(tc.n, tc.n, rng)
		symmetrise(c)
		want := c.Clone()
		syrkRef(tc.trans, 1.5, a, 0.5, want)
		got := c.Clone()
		if err := SSYRK(tc.trans, 1.5, a, 0.5, got, tc.threads); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if d := got.MaxAbsDiff(want); d > tolF32(tc.k) {
			t.Errorf("%+v: max diff %v", tc, d)
		}
		// Result must be exactly symmetric.
		for i := 0; i < tc.n; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("%+v: asymmetric at (%d,%d)", tc, i, j)
				}
			}
		}
	}
}

// TestSyrkPackedMatchesNaiveMatrix is the exhaustive edge-case matrix for
// the packed SYRK path, mirroring TestPackedMatchesNaiveMatrix: every
// supported micro-tile × {trans} × {alpha, beta ∈ 0/1/other} × strided C ×
// n values that leave remainders against every blocking boundary, in both
// precisions (rotating), checked against the naive reference.
func TestSyrkPackedMatchesNaiveMatrix(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(30))
	alphas := []float32{0, 1, 1.25}
	betas := []float32{0, 1, -0.5}
	for _, tile := range tilesOf[float32]() {
		mr, nr := tile[0], tile[1]
		prm := Params{MC: 2 * mr, KC: 10, NC: 2 * nr, MR: mr, NR: nr}
		if err := prm.Validate(); err != nil {
			t.Fatalf("tile %dx%d params: %v", mr, nr, err)
		}
		// Dimensions straddling MR/NR/MC/NC boundaries: 1, tile±1, one and
		// two full MC blocks ± 1, and a KC-boundary k set.
		nDims := []int{1, mr - 1, mr + 1, 2*mr - 1, 2 * mr, 4*mr + 1, 17, 33}
		kDims := []int{1, 9, 10, 11, 21}
		combo := 0
		for _, n := range nDims {
			if n < 1 {
				continue
			}
			for _, k := range kDims {
				trans := combo&1 != 0
				threads := 1 + combo%4
				extra := (combo % 3) * 3 // 0, 3, 6 stride padding
				alpha := alphas[combo%len(alphas)]
				beta := betas[(combo/2)%len(betas)]
				combo++

				ar, ac := n, k
				if trans {
					ar, ac = k, n
				}
				a := stridedF32(ar, ac, extra, rng)
				c := stridedF32(n, n, extra, rng)
				symmetrise(c)
				want := c.Clone()
				NaiveSSYRK(trans, alpha, a, beta, want)
				if err := SSYRKWithParams(trans, alpha, a, beta, c, threads, prm); err != nil {
					t.Fatalf("tile %dx%d n=%d k=%d trans=%v: %v", mr, nr, n, k, trans, err)
				}
				if d := c.Clone().MaxAbsDiff(want); d > tolF32(k) {
					t.Errorf("tile %dx%d n=%d k=%d trans=%v threads=%d alpha=%v beta=%v: max diff %v",
						mr, nr, n, k, trans, threads, alpha, beta, d)
				}
				checkPaddingF32(t, c, "syrk C")
			}
		}
	}
}

// TestDSYRKMatchesNaiveMatrix runs the double-precision path (packed and
// small) over the same trans × alpha/beta × stride axes.
func TestDSYRKMatchesNaiveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, limit := range []int{forcePacked, forceSmall} {
		forcePath(t, limit)
		combo := 0
		for _, n := range []int{1, 3, 7, 16, 33} {
			for _, k := range []int{1, 5, 12} {
				trans := combo&1 != 0
				threads := 1 + combo%3
				extra := (combo % 2) * 3
				beta := 0.75
				if combo%4 == 0 {
					beta = 0
				}
				combo++

				ar, ac := n, k
				if trans {
					ar, ac = k, n
				}
				a := stridedF64(ar, ac, extra, rng)
				c := stridedF64(n, n, extra, rng)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						c.Set(i, j, c.At(j, i))
					}
				}
				want := c.Clone()
				NaiveDSYRK(trans, -1.5, a, beta, want)
				if err := DSYRK(trans, -1.5, a, beta, c, threads); err != nil {
					t.Fatalf("n=%d k=%d trans=%v: %v", n, k, trans, err)
				}
				if d := c.Clone().MaxAbsDiff(want); d > tolF64(k) {
					t.Errorf("limit=%d n=%d k=%d trans=%v: max diff %v", limit, n, k, trans, d)
				}
			}
		}
	}
}

// TestSyrkThreadDeterminism pins the bit-exactness guarantee on the packed
// SYRK path: row ownership and the mirror band split affect only which
// worker computes an element, never its summation order, so any thread
// count must reproduce the serial result exactly.
func TestSyrkThreadDeterminism(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(32))
	for _, sh := range [][2]int{{97, 53}, {129, 256}, {64, 300}} {
		n, k := sh[0], sh[1]
		a := randF32(n, k, rng)
		ref := mat.NewF32(n, n)
		if err := SSYRK(false, 1, a, 0, ref, 1); err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{2, 3, 5, 8} {
			c := mat.NewF32(n, n)
			if err := SSYRK(false, 1, a, 0, c, threads); err != nil {
				t.Fatal(err)
			}
			if d := c.MaxAbsDiff(ref); d != 0 {
				t.Errorf("n=%d k=%d threads=%d: differs from serial by %v (want bit-identical)", n, k, threads, d)
			}
		}
	}
}

// TestSyrkZeroAllocSteadyState enforces the zero-allocation guarantee of the
// SYRK Context path and the pooled package path once warm.
func TestSyrkZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(33))
	a := randF32(128, 96, rng)
	c := mat.NewF32(128, 128)
	for _, tc := range []struct {
		name    string
		threads int
	}{{"serial", 1}, {"team2", 2}, {"team4", 4}} {
		ctx := NewContext()
		for i := 0; i < 2; i++ { // warm: buffers, team, worker closure
			if err := ctx.SSYRK(false, 1, a, 0, c, tc.threads); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := ctx.SSYRK(false, 1, a, 0, c, tc.threads); err != nil {
				t.Fatal(err)
			}
		})
		ctx.Close()
		if allocs != 0 {
			t.Errorf("Context.SSYRK %s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	for i := 0; i < 3; i++ { // warm the package pool
		if err := SSYRK(false, 1, a, 0, c, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := SSYRK(false, 1, a, 0, c, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled blas.SSYRK: %v allocs/op, want 0", allocs)
	}
	a64, c64 := randF64(128, 96, rng), mat.NewF64(128, 128)
	zeroAllocAfterWarm(t, "blas.DSYRK", func() error { return DSYRK(false, 1, a64, 0, c64, 2) })
}

// TestSyrkGemmInterleavedContext drives one Context through alternating GEMM
// and SYRK calls: the shared buffers and dispatch must not bleed state
// between operations.
func TestSyrkGemmInterleavedContext(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(34))
	ctx := NewContext()
	defer ctx.Close()
	for round := 0; round < 3; round++ {
		n, k := 48+16*round, 33+round
		a := randF32(n, k, rng)
		b := randF32(k, n, rng)
		cg := mat.NewF32(n, n)
		wantG := mat.NewF32(n, n)
		NaiveSGEMM(false, false, 1, a, b, 0, wantG)
		if err := ctx.SGEMM(false, false, 1, a, b, 0, cg, 1+round); err != nil {
			t.Fatal(err)
		}
		if d := cg.MaxAbsDiff(wantG); d > tolF32(k) {
			t.Errorf("round %d gemm: diff %v", round, d)
		}
		cs := mat.NewF32(n, n)
		wantS := mat.NewF32(n, n)
		NaiveSSYRK(false, 2, a, 0, wantS)
		if err := ctx.SSYRK(false, 2, a, 0, cs, 4-round); err != nil {
			t.Fatal(err)
		}
		if d := cs.MaxAbsDiff(wantS); d > tolF32(k) {
			t.Errorf("round %d syrk: diff %v", round, d)
		}
	}
}

func TestSSYRKValidation(t *testing.T) {
	a := mat.NewF32(4, 3)
	cBad := mat.NewF32(3, 4)
	if err := SSYRK(false, 1, a, 0, cBad, 1); err == nil {
		t.Error("non-square C should error")
	}
	if err := DSYRK(true, 1, mat.NewF64(4, 3), 0, mat.NewF64(4, 4), 1); err == nil {
		t.Error("transposed dims mismatching C should error")
	}
}

func TestSSYRKAlphaZero(t *testing.T) {
	a := mat.NewF32(3, 2)
	c := mat.NewF32(3, 3)
	c.Fill(4)
	if err := SSYRK(false, 0, a, 0.5, c, 2); err != nil {
		t.Fatal(err)
	}
	if c.At(1, 1) != 2 {
		t.Errorf("alpha=0 should scale C by beta: %v", c.At(1, 1))
	}
	if c.At(0, 2) != c.At(2, 0) {
		t.Errorf("alpha=0 result not symmetric: %v vs %v", c.At(0, 2), c.At(2, 0))
	}
}

// TestClampParts checks the thread clamp against the MR-row band count.
func TestClampParts(t *testing.T) {
	for _, tc := range []struct{ threads, m, mr, want int }{
		{1, 1, 8, 1},
		{2, 7, 8, 1},
		{2, 8, 8, 1}, // exactly one band: no idle second part
		{2, 9, 8, 2},
		{4, 16, 8, 2},
		{4, 17, 8, 3},
		{3, 640, 8, 3},
		{16, 100, 4, 16},
		{32, 100, 4, 25},
	} {
		if got := clampParts(tc.threads, tc.m, tc.mr); got != tc.want {
			t.Errorf("clampParts(%d, m=%d, MR=%d) = %d, want %d", tc.threads, tc.m, tc.mr, got, tc.want)
		}
	}
}

// TestRowRangePartition checks both row splits, GEMM's even band split and
// SYRK's per-panel weighted one: part ranges are contiguous, cover [0, n)
// with interior boundaries on MR multiples, GEMM parts differ by at most
// one band, and no SYRK part carries more than its even share of the
// panel's tile weight plus one band's.
func TestRowRangePartition(t *testing.T) {
	prms := []Params{
		DefaultParams().withTile(asmTileF32),
		{MC: 64, KC: 64, NC: 96, MR: 4, NR: 4}, // several jc panels
	}
	for _, prm := range prms {
		for _, n := range []int{1, 7, 8, 100, 129, 257, 768, 1000} {
			for _, parts := range []int{1, 2, 3, 4, 7, 16} {
				for jc := 0; jc < n; jc += prm.NC {
					nc := min(prm.NC, n-jc)
					name := fmt.Sprintf("MR=%d NC=%d n=%d parts=%d jc=%d", prm.MR, prm.NC, n, parts, jc)

					bands := checkRowRanges(t, "gemm "+name, n, prm.MR, parts, func(w int) (int, int) {
						return gemmRowRange(n, prm.MR, w, parts)
					}, func(int) int { return 1 })
					if lo, hi := slices.Min(bands), slices.Max(bands); hi-lo > 1 {
						t.Errorf("gemm %s: parts own %v bands, want at most one apart", name, bands)
					}

					weight := func(b int) int { return syrkBandWeight(b, n, jc, nc, prm) }
					total, maxBand := 0, 0
					for b := 0; b*prm.MR < n; b++ {
						total += weight(b)
						maxBand = max(maxBand, weight(b))
					}
					weights := checkRowRanges(t, "syrk "+name, n, prm.MR, parts, func(w int) (int, int) {
						return syrkRowRange(n, jc, nc, prm, w, parts)
					}, weight)
					for w, got := range weights {
						// got ≤ total/parts + maxBand, in integers.
						if got*parts > total+maxBand*parts {
							t.Errorf("syrk %s w=%d: weight %d over even share %d/%d plus one band (%d)", name, w, got, total, parts, maxBand)
						}
					}
				}
			}
		}
	}
}

// checkRowRanges checks that the ranges of parts 0..parts-1 cover [0, n)
// contiguously with interior boundaries on MR multiples, and returns each
// part's summed band weight.
func checkRowRanges(t *testing.T, name string, n, mr, parts int, rowRange func(w int) (lo, hi int), weight func(b int) int) []int {
	t.Helper()
	sums := make([]int, parts)
	next := 0
	for w := range sums {
		lo, hi := rowRange(w)
		if lo != next || hi < lo {
			t.Fatalf("%s w=%d: range [%d,%d), want start %d", name, w, lo, hi, next)
		}
		if hi != n && hi%mr != 0 {
			t.Fatalf("%s w=%d: boundary %d not a multiple of MR=%d", name, w, hi, mr)
		}
		for b := lo / mr; b*mr < hi; b++ {
			sums[w] += weight(b)
		}
		next = hi
	}
	if next != n {
		t.Fatalf("%s: ranges cover [0,%d) of [0,%d)", name, next, n)
	}
	return sums
}

// TestMirrorRangePartition checks the mirror-band split covers every row
// exactly once.
func TestMirrorRangePartition(t *testing.T) {
	for _, n := range []int{1, 2, 17, 256} {
		for _, parts := range []int{1, 2, 5, 9} {
			next := 0
			for w := 0; w < parts; w++ {
				lo, hi := mirrorRange(n, w, parts)
				if lo != next || hi < lo {
					t.Fatalf("n=%d parts=%d w=%d: band [%d,%d), want start %d", n, parts, w, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: bands cover %d rows", n, parts, next)
			}
		}
	}
}
