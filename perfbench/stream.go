package main

// The stream workloads run a fixed set of distinct BLAS-3 calls through
// adsala.BLAS over and over, in whole passes, so every measured pass does
// the same work. stream-small sits in the paper's gain region, where the
// 1-vs-2-thread choice, team wake-up and the per-call decision cost show;
// stream-large is bound by kernel time, where packing, the micro-kernel
// and 2-thread scaling decide the result and decision overhead is noise.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	adsala "repro"
	"repro/internal/core"
	"repro/internal/sampling"
)

// smallCallFlops bounds the calls blas.small_call_p50_us covers.
const smallCallFlops = 2 * 128 * 128 * 128

// streamEnv is one set-up stream: the trained library, the facade and the
// allocated calls, warmed by one untimed pass.
type streamEnv struct {
	lib    *core.Library
	blas   *adsala.BLAS
	calls  []*call
	flops  float64 // FLOPs of one pass
	trainS float64
}

// setupStream builds a stream from nothing: train from the table, build the
// facade, draw and allocate the calls, run the warm pass.
func setupStream(o options, sh streamShape) (*streamEnv, error) {
	t0 := time.Now()
	clib, err := trainFromTable(o.table)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainS := time.Since(t0).Seconds()
	lib, err := publicLibrary(clib, o.workdir)
	if err != nil {
		return nil, err
	}
	specs, err := buildSpecs(sh, o.seed, o.table.trainingShapes())
	if err != nil {
		return nil, err
	}
	env := &streamEnv{lib: clib, blas: lib.BLAS(), calls: newCalls(specs, o.seed), trainS: trainS}
	for _, c := range env.calls {
		env.flops += c.flops()
		if err := c.viaFacade(env.blas); err != nil {
			return nil, fmt.Errorf("warm pass: %v: %w", c.spec, err)
		}
	}
	return env, nil
}

// facadePass runs every call once through adsala.BLAS, storing call i's
// latency (µs) in lat[i] when lat is non-nil. It returns the number of
// calls that failed.
func (e *streamEnv) facadePass(lat []float64) int {
	failed := 0
	for i, c := range e.calls {
		t0 := time.Now()
		err := c.viaFacade(e.blas)
		if lat != nil {
			lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		if err != nil {
			failed++
		}
	}
	return failed
}

// medianSetup runs setup setupRuns times, each from nothing, and keeps the
// last environment. It returns the median set-up and training times.
func medianSetup[E any](setup func() (E, float64, error), release func(E)) (env E, setupS, trainS float64, err error) {
	var setups, trains samples
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(env)
			runtime.GC()
		}
		t0 := time.Now()
		var train float64
		env, train, err = setup()
		if err != nil {
			return env, 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, train)
	}
	return env, setups.median(), trains.median(), nil
}

// runStream is the stream-small and stream-large workload.
func runStream(o options, sh streamShape) (*report, error) {
	env, setupS, trainS, err := medianSetup(func() (*streamEnv, float64, error) {
		env, err := setupStream(o, sh)
		if err != nil {
			return nil, 0, err
		}
		return env, env.trainS, nil
	}, func(*streamEnv) {})
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceStream(o, env, trainS)
	}

	// Passes are grouped into windows of about windowLen; the metrics use
	// the passes of the windows keepQuiet keeps. Throughput is the FLOPs
	// (or calls) of the kept passes over their summed wall time, decision
	// and record included.
	rep := newReport()
	n := len(env.calls)
	var passLat [][]float64
	var passNs []float64
	var passWin []int
	var ws []window
	s0, w0 := stealTicks(), time.Now()
	for start := time.Now(); time.Since(start) < o.dur || len(passLat) < minPasses; {
		lat := make([]float64, n)
		rep.attempted += int64(n)
		t0 := time.Now()
		rep.failed += int64(env.facadePass(lat))
		passNs = append(passNs, float64(time.Since(t0).Nanoseconds()))
		passLat = append(passLat, lat)
		passWin = append(passWin, len(ws))
		if d := time.Since(w0); d >= windowLen {
			s1 := stealTicks()
			ws = append(ws, window{d, s1 - s0})
			s0, w0 = s1, time.Now()
		}
	}
	if passWin[len(passWin)-1] == len(ws) {
		ws = append(ws, window{time.Since(w0), stealTicks() - s0})
	}
	for _, err := range checkAll(env.calls) {
		rep.failed += int64(len(passLat))
		rep.note("output check: %v", err)
	}
	keep, stolen := keepQuiet(ws)
	var all samples
	var keptNs float64
	kept := 0
	for p, lat := range passLat {
		if !keep[passWin[p]] {
			continue
		}
		kept++
		keptNs += passNs[p]
		all = append(all, lat...)
	}
	rep.set("gflops", float64(kept)*env.flops/keptNs, "GFLOP/s", kept)
	rep.set("rps", float64(kept*n)/keptNs*1e9, "1/s", kept)
	rep.set("p50_us", all.quantile(0.50), "us", len(all))
	rep.set("p99_us", all.quantile(0.99), "us", len(all))
	rep.set("setup_s", setupS, "s", setupRuns)
	rep.note("%d distinct calls, %.3f GFLOP per pass, %d passes, %d kept", n, env.flops/1e9, len(passLat), kept)
	rep.note("%.2f%% of the VM's CPU stolen while timing", 100*stolen)
	return rep, nil
}

// Variants of one call in a traced round.
const (
	vFacade = iota // untraced, through adsala.BLAS
	vTraced        // decomposed into the facade's three layer calls, in spans
	vOne           // internal/blas kernel at 1 thread
	vMax           // kernel at GOMAXPROCS threads
	vOracle        // kernel at the call's oracle thread count
	numVariants
)

// traceStream is the traced run of a stream workload. It first sweeps
// every call at 1..GOMAXPROCS threads to find the per-call oracle, then
// repeats rounds in which every call runs once in each variant, back to
// back, the first variant rotating from call to call. Comparing variants
// call by call keeps the host's speed, which drifts by ±10% over seconds
// on a shared 2-vCPU host, out of the ratios; per-layer metrics are
// medians over the rounds.
func traceStream(o options, env *streamEnv, trainS float64) (*report, error) {
	procs := runtime.GOMAXPROCS(0)
	n := len(env.calls)
	choice := make([]int, n)
	for i, c := range env.calls {
		choice[i] = env.blas.LastChoice(c.op(), c.m, c.k, c.n)
	}
	before := env.blas.Stats()

	// Oracle sweep: the per-call best of 1..GOMAXPROCS threads.
	sweep := make([][]samples, n)
	for i := range sweep {
		sweep[i] = make([]samples, procs+1)
	}
	sweepEnd := time.Now().Add(o.dur * 3 / 10)
	for rep := 0; rep == 0 || time.Now().Before(sweepEnd); rep++ {
		for i, c := range env.calls {
			for j := 0; j < procs; j++ {
				t := 1 + (i+rep+j)%procs
				t0 := time.Now()
				if err := c.kernel(t); err != nil {
					return nil, fmt.Errorf("%v at %d threads: %w", c.spec, t, err)
				}
				sweep[i][t] = append(sweep[i][t], time.Since(t0).Seconds())
			}
		}
	}
	oracle := make([]int, n)
	agree := 0
	for i := range env.calls {
		best := 0.0
		for t := 1; t <= procs; t++ {
			if m := sweep[i][t].median(); t == 1 || m < best {
				oracle[i], best = t, m
			}
		}
		if oracle[i] == choice[i] {
			agree++
		}
	}

	rep := newReport()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	failed := env.facadePass(nil)
	runtime.ReadMemStats(&ms1)
	rep.attempted += int64(n)
	rep.failed += int64(failed)

	tr := newTracer()
	eng := env.blas.Engine()
	var overhead, vsMax, vsOracle, t1GF, tmaxGF, kernGF, kernShare samples
	roundsEnd := time.Now().Add(o.dur - o.dur*3/10)
	for round := 0; round == 0 || time.Now().Before(roundsEnd); round++ {
		var sum [numVariants]float64 // ns per variant over the round
		var kernelNs float64
		for i, c := range env.calls {
			for j := 0; j < numVariants; j++ {
				v := (i + round + j) % numVariants
				t0 := time.Now()
				var err error
				switch v {
				case vFacade:
					err = c.viaFacade(env.blas)
				case vTraced:
					var kns float64
					kns, err = tracedCall(tr, eng, c, i, choice[i], procs)
					kernelNs += kns
				case vOne:
					err = c.kernel(1)
				case vMax:
					err = c.kernel(procs)
				case vOracle:
					err = c.kernel(oracle[i])
				}
				sum[v] += float64(time.Since(t0).Nanoseconds())
				if err != nil {
					return nil, err
				}
			}
		}
		rep.attempted += int64(2 * n)
		overhead = append(overhead, sum[vFacade]/sum[vTraced])
		vsMax = append(vsMax, sum[vMax]/sum[vFacade])
		vsOracle = append(vsOracle, sum[vOracle]/sum[vFacade])
		t1GF = append(t1GF, env.flops/sum[vOne])
		tmaxGF = append(tmaxGF, env.flops/sum[vMax])
		kernGF = append(kernGF, env.flops/kernelNs)
		kernShare = append(kernShare, kernelNs/sum[vTraced])
	}
	rounds := len(overhead)
	for _, err := range checkAll(env.calls) {
		rep.failed += int64(1 + 2*rounds)
		rep.note("output check: %v", err)
	}

	var small samples
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "blas.kernel" && env.calls[s.Req].flops() <= smallCallFlops {
			small = append(small, s.dur()/1e3)
		}
	}
	tr.mu.Unlock()
	rank, err := rankProbe(env.lib, o.seed)
	if err != nil {
		return nil, err
	}
	decide, record := tr.byName("serve.PredictOp"), tr.byName("serve.RecordMeasured")
	after := env.blas.Stats()
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses

	rep.set("blas.gflops", kernGF.median(), "GFLOP/s", rounds)
	rep.set("blas.t1_gflops", t1GF.median(), "GFLOP/s", rounds)
	rep.set("blas.tmax_gflops", tmaxGF.median(), "GFLOP/s", rounds)
	if len(small) > 0 {
		rep.set("blas.small_call_p50_us", small.median(), "us", len(small))
	}
	rep.set("blas.kernel_share", kernShare.median(), "ratio", rounds)
	rep.set("blas.allocs_per_call", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count", n)
	rep.set("core.rank_p50_ns", rank.median(), "ns", len(rank))
	rep.set("core.rank_p99_ns", rank.quantile(0.99), "ns", len(rank))
	rep.set("core.train_s", trainS, "s", setupRuns)
	rep.set("core.speedup_vs_max", vsMax.median(), "ratio", rounds)
	rep.set("core.oracle_fraction", vsOracle.median(), "ratio", rounds)
	rep.set("core.choice_agreement", float64(agree)/float64(n), "ratio", n)
	rep.set("serve.decide_p50_ns", decide.median(), "ns", len(decide))
	rep.set("serve.record_p50_ns", record.median(), "ns", len(record))
	rep.set("serve.hit_rate", float64(hits)/float64(max(hits+misses, 1)), "ratio", int(hits+misses))
	rep.set("bench.trace_overhead", overhead.median(), "ratio", rounds)
	rep.note("%d rounds; model stream vs always-%d threads and vs per-call oracle over %d distinct calls", rounds, procs, n)
	return rep, writeTrace(tr, o)
}

// tracedCall runs call i as the three calls adsala.BLAS makes —
// Engine.PredictOp, the internal/blas kernel at the clamped thread count,
// Engine.RecordMeasured — each in its own span under one per-call parent.
// It fails the run when the call would not run at the thread count the
// facade chose for it (LastChoice). Returns the kernel span's duration in ns.
func tracedCall(tr *tracer, eng *adsala.Engine, c *call, i, choice, procs int) (float64, error) {
	op, m, k, n := c.op(), c.m, c.k, c.n
	parent := tr.newID()
	t0 := tr.now()
	threads := eng.PredictOp(op, m, k, n)
	t1 := tr.now()
	threads = min(max(threads, 1), procs)
	if threads != choice {
		return 0, fmt.Errorf("decision parity: %v chose %d threads, the facade %d", c.spec, threads, choice)
	}
	err := c.kernel(threads)
	t2 := tr.now()
	if err != nil {
		return 0, fmt.Errorf("%v: %w", c.spec, err)
	}
	eng.RecordMeasured(op, m, k, n, threads, t2-t1)
	t3 := tr.now()
	req := int64(i)
	tr.add(span{ID: tr.newID(), Parent: parent, Req: req, Name: "serve.PredictOp", Start: t0, End: t1})
	tr.add(span{ID: tr.newID(), Parent: parent, Req: req, Name: "blas.kernel", Start: t1, End: t2})
	tr.add(span{ID: tr.newID(), Parent: parent, Req: req, Name: "serve.RecordMeasured", Start: t2, End: t3})
	tr.add(span{ID: parent, Req: req, Name: "stream.call", Start: t0, End: t3})
	return float64(t2 - t1), nil
}

// rankProbe times core.Library.RankOpInto — the cold rank a cache miss
// runs — on 3×256 fresh shapes drawn for the workload seed.
func rankProbe(lib *core.Library, seed int64) (samples, error) {
	dom := localGather(runtime.GOMAXPROCS(0)).Domain
	sampler, err := sampling.NewSampler(dom, workloadSeed(seed, numMethods+1))
	if err != nil {
		return nil, err
	}
	shapes := sampler.Sample(256)
	sc := lib.NewScratch()
	rng := rand.New(rand.NewSource(seed))
	var out samples
	for pass := 0; pass < 2; pass++ {
		for _, op := range trainedOps {
			canon := op.Spec().Canon
			for _, sh := range shapes {
				s := canon(sh)
				t0 := time.Now()
				lib.RankOpInto(op, s.M, s.K, s.N, sc, nil)
				ns := float64(time.Since(t0).Nanoseconds())
				if pass > 0 {
					out = append(out, ns)
				}
			}
		}
		rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	}
	return out, nil
}
