package main

// serve-mixed drives an in-process serve.Server on loopback, with a
// drift.Monitor attached, from closed-loop clients with retries off. No
// kernel runs: HTTP decode and encode, admission, the decision cache and
// the cold rank are the whole cost, and writes (/measured) sit beside
// reads so a gain on one path that costs another shows.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	adsala "repro"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/ops"
	"repro/internal/retry"
	"repro/internal/sampling"
	"repro/internal/serve"
)

// The request mix. Nothing in the repository records a real client's
// mix, so the ratios below are assumptions, except that a client reports
// one measured record per decision it was served, as adsala.BLAS records
// one per executed call.
const (
	serveClients     = 2  // closed-loop clients (the host's vCPU count)
	predictsPerCycle = 8  // hot /predict requests per cycle
	batchShapes      = 16 // first-seen shapes per /batch, one /batch per cycle
	recordsPer       = predictsPerCycle + batchShapes
	reqHeader        = "X-Bench-Request"

	// hotPerOp is the /predict working set per op, warmed before timing.
	// Each cycle inserts batchShapes new keys into the server's default
	// 4096-entry, 16-shard LRU cache, about one per shard, while a hot key
	// is read once per hotPerOp·3/predictsPerCycle cycles: at 64 per op a
	// key is read every 24 cycles and evicted only after ~240 without a
	// read, so /predict stays a cache hit (the hit share is reported).
	hotPerOp = 64
)

// kind is a request kind of the serve-mixed cycle.
type kind uint8

const (
	kindPredict kind = iota
	kindBatch
	kindMeasured
	numKinds
)

var kindNames = [numKinds]string{"predict", "batch", "measured"}

// cycleKind is the kind of a client's i-th request: each cycle is
// predictsPerCycle hot /predict, one /batch of fresh shapes, then one
// /measured write reporting every decision the cycle was served.
func cycleKind(i int) kind {
	switch j := i % (predictsPerCycle + 2); {
	case j < predictsPerCycle:
		return kindPredict
	case j == predictsPerCycle:
		return kindBatch
	default:
		return kindMeasured
	}
}

// opShape is one (op, canonical shape) decision key.
type opShape struct {
	op ops.Op
	sampling.Shape
}

func (s opShape) flops() float64 { return s.op.Spec().Flops(s.M, s.K, s.N) }

// freshSource hands out shapes no request has asked about yet, so every
// /batch entry misses the decision cache and runs the cold rank.
type freshSource struct {
	mu      sync.Mutex
	sampler *sampling.Sampler
	seen    map[opShape]bool
	n       int
}

func (f *freshSource) next(op ops.Op) opShape {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		s := opShape{op, op.Spec().Canon(f.sampler.Next())}
		if !f.seen[s] {
			f.seen[s] = true
			f.n++
			return s
		}
	}
}

// serveEnv is one set-up server and the request sources its clients draw from.
type serveEnv struct {
	lib     *core.Library
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	hot     []opShape
	fresh   *freshSource
	cands   map[int]bool
	trainS  float64
}

// setupServe trains from the table, starts the server on a loopback port
// with a drift monitor and warms the hot working set with Engine.Warmup.
func setupServe(o options, handler func(*serve.Server) http.Handler) (*serveEnv, error) {
	t0 := time.Now()
	clib, err := trainFromTable(o.table)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	env := &serveEnv{lib: clib, trainS: time.Since(t0).Seconds(), cands: make(map[int]bool)}
	lib, err := publicLibrary(clib, o.workdir)
	if err != nil {
		return nil, err
	}
	for _, c := range lib.Candidates() {
		env.cands[c] = true
	}
	env.srv = lib.NewServer(adsala.ServeOptions{})
	eng := env.srv.Engine()
	eng.SetDriftMonitor(drift.NewMonitor(drift.Config{}))

	dom := localGather(runtime.GOMAXPROCS(0)).Domain
	hotSeed := workloadSeed(o.seed, numMethods+2)
	if _, err := eng.Warmup(dom, hotPerOp, hotSeed, trainedOps...); err != nil {
		return nil, err
	}
	sampler, err := sampling.NewSampler(dom, hotSeed)
	if err != nil {
		return nil, err
	}
	hot := sampler.Sample(hotPerOp)
	freshSampler, err := sampling.NewSampler(dom, workloadSeed(o.seed, numMethods+3))
	if err != nil {
		return nil, err
	}
	env.fresh = &freshSource{sampler: freshSampler, seen: make(map[opShape]bool)}
	for _, op := range trainedOps {
		for _, sh := range hot {
			s := opShape{op, op.Spec().Canon(sh)}
			env.hot = append(env.hot, s)
			env.fresh.seen[s] = true
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.httpSrv = &http.Server{Handler: handler(env.srv)}
	env.served = make(chan error, 1)
	go func() { env.served <- env.httpSrv.Serve(ln) }()
	return env, nil
}

// close stops the server and waits for its accept loop to return.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.httpSrv.Shutdown(ctx)
	if served := <-e.served; !errors.Is(served, http.ErrServerClosed) && err == nil {
		err = served
	}
	return err
}

// sample is one completed request as the client saw it.
type sample struct {
	kind   kind
	failed bool
	end    time.Duration // completion, from the start of the phase
	us     float64       // client-observed latency
	flops  float64       // FLOPs of the calls whose threads were decided
}

// benchClient is one closed-loop client: its serve.Client, its seeded
// choice of hot keys, and the decisions served since its last /measured.
type benchClient struct {
	cl      *serve.Client
	rng     *rand.Rand
	pending []serve.MeasuredRecord
}

// served queues the measured record of a decision, as adsala.BLAS would
// record the call it ran: the decided thread count and a kernel time.
func (c *benchClient) served(s opShape, threads int) {
	c.pending = append(c.pending, serve.MeasuredRecord{Op: s.op.String(), M: s.M, K: s.K, N: s.N,
		Threads: threads, MeasuredNs: 1000 + c.rng.Int63n(int64(s.flops())/2+1)})
}

// clientStats is one phase's merged client samples, with the VM's stolen
// CPU ticks read at the phase's window boundaries.
type clientStats struct {
	all    []sample
	shed   int
	errs   []error
	dur    time.Duration
	steals []int64
}

// newClient returns a serve.Client with retries off over its own
// transport, optionally tagging each request with its trace ID.
func newClient(base string, tr *tracer) (*serve.Client, *http.Transport) {
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = tagTransport{transport}
	}
	return serve.NewClient(base, &http.Client{Transport: rt, Timeout: 10 * time.Second},
		serve.WithRetryPolicy(retry.Policy{MaxAttempts: 1})), transport
}

type reqIDKey struct{}

// tagTransport copies the request ID from the context into a header, so
// the handler span can be matched to the client span.
type tagTransport struct{ next http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	return t.next.RoundTrip(r)
}

// handlerSpans wraps Server.ServeHTTP in a span for tagged requests.
func handlerSpans(tr *tracer) func(*serve.Server) http.Handler {
	return func(s *serve.Server) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
			if err != nil {
				s.ServeHTTP(w, r)
				return
			}
			t0 := tr.now()
			s.ServeHTTP(w, r)
			tr.add(span{ID: tr.newID(), Req: id, Name: "handler" + r.URL.Path, Start: t0, End: tr.now()})
		})
	}
}

// drive runs the clients for d and merges what they saw. With a tracer,
// every request gets a client span and an ID its handler span shares.
func (e *serveEnv) drive(o options, d time.Duration, phase int64, tr *tracer) clientStats {
	per := make([]clientStats, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	nw := max(int(d/windowLen), 2)
	steals := make([]int64, nw+1)
	steals[0] = stealTicks()
	wg.Add(1)
	go func() { // reads the steal counter at each window boundary
		defer wg.Done()
		for k := 1; k <= nw; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(nw))))
			steals[k] = stealTicks()
		}
	}()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, transport := newClient(e.base, tr)
			defer transport.CloseIdleConnections()
			bc := &benchClient{cl: cl, rng: rand.New(rand.NewSource(workloadSeed(o.seed, numMethods+4) + 64*phase + int64(c)))}
			st := &per[c]
			for i := 0; time.Since(start) < d; i++ {
				ctx := context.Background()
				var id int64
				if tr != nil {
					id = tr.newID()
					ctx = context.WithValue(ctx, reqIDKey{}, id)
				}
				k := cycleKind(i)
				t0 := time.Now()
				flops, err := e.request(ctx, bc, k)
				t1 := time.Now()
				if tr != nil {
					tr.add(span{ID: tr.newID(), Req: id, Name: "client/" + kindNames[k], Start: int64(t0.Sub(tr.base)), End: int64(t1.Sub(tr.base))})
				}
				var se *serve.StatusError
				if errors.As(err, &se) && se.Status == http.StatusTooManyRequests {
					st.shed++
				}
				if err != nil && len(st.errs) < 5 {
					st.errs = append(st.errs, err)
				}
				st.all = append(st.all, sample{kind: k, failed: err != nil, end: t1.Sub(start), us: float64(t1.Sub(t0).Nanoseconds()) / 1e3, flops: flops})
			}
		}(c)
	}
	wg.Wait()
	out := clientStats{dur: d, steals: steals}
	for _, st := range per {
		out.all = append(out.all, st.all...)
		out.shed += st.shed
		out.errs = append(out.errs, st.errs...)
	}
	return out
}

// request sends one request of the given kind and checks the answer. It
// returns the FLOPs of the calls whose thread counts the answer decided.
func (e *serveEnv) request(ctx context.Context, bc *benchClient, k kind) (float64, error) {
	switch k {
	case kindPredict:
		s := e.hot[bc.rng.Intn(len(e.hot))]
		t, err := bc.cl.PredictOpCtx(ctx, s.op, s.M, s.K, s.N)
		if err != nil {
			return 0, err
		}
		if !e.cands[t] {
			return 0, fmt.Errorf("/predict %v %v: %d threads is not a candidate", s.op, s.Shape, t)
		}
		bc.served(s, t)
		return s.flops(), nil
	case kindBatch:
		reqs := make([]serve.PredictRequest, batchShapes)
		shapes := make([]opShape, batchShapes)
		var flops float64
		for i := range reqs {
			s := e.fresh.next(trainedOps[i%len(trainedOps)])
			reqs[i] = serve.PredictRequest{M: s.M, K: s.K, N: s.N, Op: s.op.String()}
			shapes[i] = s
			flops += s.flops()
		}
		threads, err := bc.cl.PredictBatchRequestsCtx(ctx, reqs)
		if err != nil {
			return 0, err
		}
		if len(threads) != len(reqs) {
			return 0, fmt.Errorf("/batch answered %d decisions for %d shapes", len(threads), len(reqs))
		}
		for i, t := range threads {
			if !e.cands[t] {
				return 0, fmt.Errorf("/batch %v: %d threads is not a candidate", reqs[i], t)
			}
			bc.served(shapes[i], t)
		}
		return flops, nil
	default:
		recs := bc.pending
		bc.pending = nil
		acc, err := bc.cl.ReportMeasuredCtx(ctx, recs)
		if err != nil {
			return 0, err
		}
		if acc != len(recs) {
			return 0, fmt.Errorf("/measured accepted %d of %d records", acc, len(recs))
		}
		return 0, nil
	}
}

// windowed splits a phase into its steal-sampled windows, keeps those
// keepQuiet keeps, and returns per kept window the completed requests per
// second and decided GFLOP/s, plus the requests that completed in a kept
// window and the share of CPU stolen over the phase.
func (cs clientStats) windowed() (rps, gflops samples, kept []sample, stolen float64) {
	n := len(cs.steals) - 1
	w := cs.dur / time.Duration(n)
	ws := make([]window, n)
	for i := range ws {
		ws[i] = window{w, cs.steals[i+1] - cs.steals[i]}
	}
	keep, stolen := keepQuiet(ws)
	count := make([]float64, n)
	flops := make([]float64, n)
	for _, s := range cs.all {
		i := int(s.end / w)
		if i >= n || !keep[i] {
			continue
		}
		kept = append(kept, s)
		if !s.failed {
			count[i]++
			flops[i] += s.flops
		}
	}
	for i := range count {
		if keep[i] {
			rps = append(rps, count[i]/w.Seconds())
			gflops = append(gflops, flops[i]/w.Seconds()/1e9)
		}
	}
	return rps, gflops, kept, stolen
}

// windowQuantiles returns, per kept window, the q-quantile of the client
// latencies (µs) of the kept requests that completed in it.
func (cs clientStats) windowQuantiles(kept []sample, q float64) samples {
	w := cs.dur / time.Duration(len(cs.steals)-1)
	byWin := make(map[int]samples)
	for _, s := range kept {
		i := int(s.end / w)
		byWin[i] = append(byWin[i], s.us)
	}
	out := make(samples, 0, len(byWin))
	for _, l := range byWin {
		out = append(out, l.quantile(q))
	}
	return out
}

// latencies returns the client latencies (µs) of every request, or of one
// kind when k < numKinds.
func latencies(all []sample, k kind) samples {
	var out samples
	for _, s := range all {
		if k == numKinds || s.kind == k {
			out = append(out, s.us)
		}
	}
	return out
}

// account adds a phase's requests to the report's attempted and failed
// counts.
func (r *report) account(cs clientStats) {
	for _, s := range cs.all {
		r.attempted++
		if s.failed {
			r.failed++
		}
	}
	for _, err := range cs.errs {
		r.note("request failed: %v", err)
	}
}

// predictHitRate returns the share of the phases' completed /predict
// requests the decision cache answered, and their number. /batch shapes are
// first-seen, so every cache hit between the two engine snapshots is a
// /predict one.
func predictHitRate(before, after serve.Stats, phases ...clientStats) (float64, int) {
	n := 0
	for _, cs := range phases {
		for _, s := range cs.all {
			if s.kind == kindPredict && !s.failed {
				n++
			}
		}
	}
	return float64(after.CacheHits-before.CacheHits) / float64(max(n, 1)), n
}

// runServe is the serve-mixed workload.
func runServe(o options) (*report, error) {
	var tr *tracer
	handler := func(s *serve.Server) http.Handler { return s }
	if o.trace {
		tr = newTracer()
		handler = handlerSpans(tr)
	}
	env, setupS, trainS, err := medianSetup(func() (*serveEnv, float64, error) {
		env, err := setupServe(o, handler)
		if err != nil {
			return nil, 0, err
		}
		return env, env.trainS, nil
	}, func(e *serveEnv) { _ = e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	if o.trace {
		return traceServe(o, env, tr, trainS)
	}

	rep := newReport()
	before := env.srv.Engine().Stats()
	cs := env.drive(o, o.dur, 0, nil)
	predictHits, predicts := predictHitRate(before, env.srv.Engine().Stats(), cs)
	rep.account(cs)
	rps, gflops, kept, stolen := cs.windowed()
	p50, p99 := cs.windowQuantiles(kept, 0.50), cs.windowQuantiles(kept, 0.99)
	rep.set("gflops", gflops.median(), "GFLOP/s", len(gflops))
	rep.set("rps", rps.median(), "1/s", len(rps))
	rep.set("p50_us", p50.median(), "us", len(kept))
	rep.set("p99_us", p99.median(), "us", len(kept))
	rep.note("p99 per kept window %.0f–%.0f us, %.1f us over all kept requests", p99.quantile(0), p99.quantile(1), latencies(kept, numKinds).quantile(0.99))
	rep.set("setup_s", setupS, "s", setupRuns)
	for k := kind(0); k < numKinds; k++ {
		l := latencies(kept, k)
		rep.note("%s: p50 %.1f us, p99 %.1f us (n=%d)", kindNames[k], l.quantile(0.5), l.quantile(0.99), len(l))
	}
	rep.note("%d requests, %d in %d kept windows, %d shed, %d fresh shapes ranked", len(cs.all), len(kept), len(rps), cs.shed, env.fresh.n)
	rep.note("%.2f%% of the VM's CPU stolen while timing", 100*stolen)
	rep.note("%.4f of %d /predict requests were cache hits", predictHits, predicts)
	return rep, nil
}

// traceServe is the traced run of serve-mixed: half the time untraced, half
// with client and handler spans, then in-process probes of the engine.
func traceServe(o options, env *serveEnv, tr *tracer, trainS float64) (*report, error) {
	rep := newReport()
	eng := env.srv.Engine()
	before := eng.Stats()
	half := o.dur / 2
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := env.drive(o, half, 0, nil)
	runtime.ReadMemStats(&ms1)
	traced := env.drive(o, half, 1, tr)
	after := eng.Stats()
	rep.account(plain)
	rep.account(traced)
	plainRPS, _, plainKept, _ := plain.windowed()
	tracedRPS, _, _, _ := traced.windowed()

	// Match handler spans to client spans by request ID.
	handler := make(map[int64]span)
	client := make(map[int64]span)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "handler/") {
			handler[s.Req] = s
		} else {
			client[s.Req] = s
		}
	}
	tr.mu.Unlock()
	var transport, ingest samples
	for id, c := range client {
		h, ok := handler[id]
		if !ok {
			continue
		}
		transport = append(transport, (c.dur()-h.dur())/1e3)
		if h.Name == "handler/measured" {
			ingest = append(ingest, h.dur()/recordsPer)
		}
	}

	// In-process probes of the engine behind the server.
	var decide, record samples
	for _, s := range env.hot {
		t0 := time.Now()
		t := eng.PredictOp(s.op, s.M, s.K, s.N)
		t1 := time.Now()
		eng.RecordMeasured(s.op, s.M, s.K, s.N, t, 1000)
		decide = append(decide, float64(t1.Sub(t0).Nanoseconds()))
		record = append(record, float64(time.Since(t1).Nanoseconds()))
	}
	rank, err := rankProbe(env.lib, o.seed)
	if err != nil {
		return nil, err
	}

	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	rep.set("core.rank_p50_ns", rank.median(), "ns", len(rank))
	rep.set("core.rank_p99_ns", rank.quantile(0.99), "ns", len(rank))
	rep.set("core.train_s", trainS, "s", setupRuns)
	rep.set("serve.decide_p50_ns", decide.median(), "ns", len(decide))
	rep.set("serve.record_p50_ns", record.median(), "ns", len(record))
	rep.set("serve.hit_rate", float64(hits)/float64(max(hits+misses, 1)), "ratio", int(hits+misses))
	predictHits, predicts := predictHitRate(before, after, plain, traced)
	rep.set("serve.predict_hit_rate", predictHits, "ratio", predicts)
	for k := kind(0); k < numKinds; k++ {
		l := latencies(plainKept, k)
		rep.set("serve."+kindNames[k]+"_p99_us", l.quantile(0.99), "us", len(l))
	}
	for k := kind(0); k < numKinds; k++ {
		h := tr.byName("handler/" + kindNames[k])
		for i := range h {
			h[i] /= 1e3
		}
		rep.set("serve.http.handler_"+kindNames[k]+"_p50_us", h.median(), "us", len(h))
		rep.set("serve.http.handler_"+kindNames[k]+"_p99_us", h.quantile(0.99), "us", len(h))
	}
	rep.set("serve.http.transport_p50_us", transport.median(), "us", len(transport))
	rep.set("serve.http.allocs_per_request", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(plain.all)), "count", len(plain.all))
	rep.set("serve.http.shed", float64(plain.shed+traced.shed), "count", len(plain.all)+len(traced.all))
	rep.set("drift.ingest_p50_ns", ingest.median(), "ns", len(ingest))
	rep.set("bench.trace_overhead", tracedRPS.median()/plainRPS.median(), "ratio", len(tracedRPS))
	return rep, writeTrace(tr, o)
}
