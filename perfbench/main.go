// Command perfbench is the repository's end-to-end benchmark. It trains
// the thread-selection model from a recorded timing table, then runs one
// workload through the public entry points and prints every metric by name
// with its unit, ending with one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Workloads:
//
//	stream-small  a few hundred distinct ≤ 2·128³-FLOP calls through adsala.BLAS
//	stream-large  two dozen ≥ 2·256³-FLOP calls through adsala.BLAS
//	serve-mixed   2 closed-loop HTTP clients against an in-process serve.Server
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separate run times each layer from outside and reports the per-layer
// metrics. --record re-times the table on this host instead.
//
// Run it from the repository root as
//
//	bash perfbench/run.sh --workload stream-small --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	adsala "repro"
	"repro/internal/core"
)

const (
	setupRuns = 3 // set-ups per run; setup_s is their median
	minPasses = 3 // fewest timed passes of a stream
)

// endToEnd maps every end-to-end metric to its unit; BENCHMARK.json lists
// the same names and units. Every workload reports all of them:
//
//	gflops   streams: FLOPs (ops registry count) of the kept passes over
//	         their wall time through adsala.BLAS, decision and record
//	         included; serve-mixed: FLOPs of the calls whose thread counts
//	         /predict and /batch answers decided, per second
//	rps      streams: BLAS calls per second, as gflops; serve-mixed:
//	         completed requests per second (median of 1 s windows)
//	p50_us   exact percentiles of the raw call or request latencies the
//	p99_us   caller saw, all kinds together; streams: over every kept
//	         call; serve-mixed: the median over the kept windows of each
//	         window's percentile, so one disturbed second in a run, which
//	         the steal counter does not always show, cannot set its p99
//	setup_s  workload start to first timed op, median of setupRuns set-ups
//
// The error rate is the result line's failed/attempted.
var endToEnd = map[string]string{
	"gflops":  "GFLOP/s",
	"rps":     "1/s",
	"p50_us":  "us",
	"p99_us":  "us",
	"setup_s": "s",
}

// perLayer lists every per-layer metric. A traced run reports each one; a
// layer the workload does not reach reads 0 with a sample count of 0.
var perLayer = map[string]string{
	"blas.gflops":                        "GFLOP/s",
	"blas.t1_gflops":                     "GFLOP/s",
	"blas.tmax_gflops":                   "GFLOP/s",
	"blas.small_call_p50_us":             "us",
	"blas.kernel_share":                  "ratio",
	"blas.allocs_per_call":               "count",
	"core.rank_p50_ns":                   "ns",
	"core.rank_p99_ns":                   "ns",
	"core.train_s":                       "s",
	"core.speedup_vs_max":                "ratio",
	"core.oracle_fraction":               "ratio",
	"core.choice_agreement":              "ratio",
	"serve.decide_p50_ns":                "ns",
	"serve.record_p50_ns":                "ns",
	"serve.hit_rate":                     "ratio",
	"serve.predict_hit_rate":             "ratio",
	"serve.predict_p99_us":               "us",
	"serve.batch_p99_us":                 "us",
	"serve.measured_p99_us":              "us",
	"serve.http.handler_predict_p50_us":  "us",
	"serve.http.handler_predict_p99_us":  "us",
	"serve.http.handler_batch_p50_us":    "us",
	"serve.http.handler_batch_p99_us":    "us",
	"serve.http.handler_measured_p50_us": "us",
	"serve.http.handler_measured_p99_us": "us",
	"serve.http.transport_p50_us":        "us",
	"serve.http.allocs_per_request":      "count",
	"serve.http.shed":                    "count",
	"drift.ingest_p50_ns":                "ns",
	"bench.trace_overhead":               "ratio",
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	workdir  string // scratch files: the model artefact, the trace
	table    *timingTable
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "stream-small, stream-large or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: shapes, operands and request cycles")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	tablePath := fs.String("table", "perfbench/table.json", "timing table")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files")
	record := fs.Bool("record", false, "re-time the table on this host and write it to -table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		tab, err := recordTable()
		if err == nil {
			err = tab.save(*tablePath)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	tab, err := loadTable(*tablePath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir, table: tab}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rep.note("peak RSS %d MB", ru.Maxrss/1024)
	}
	if err := rep.print(stdout, o.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"stream-small": func(o options) (*report, error) { return runStream(o, smallStream) },
	"stream-large": func(o options) (*report, error) { return runStream(o, largeStream) },
	"serve-mixed":  runServe,
}

func runWorkload(o options) (*report, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want stream-small, stream-large or serve-mixed)", o.workload)
	}
	return w(o)
}

// publicLibrary hands a trained core library to the public API the way an
// install does: saved as an artefact, then loaded with adsala.Load.
func publicLibrary(lib *core.Library, dir string) (*adsala.Library, error) {
	path := filepath.Join(dir, fmt.Sprintf("model-%d.adsala.json", os.Getpid()))
	if err := lib.Save(path); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	return adsala.Load(path)
}

// writeTrace stores a traced run's spans in the work directory.
func writeTrace(tr *tracer, o options) error {
	return tr.write(filepath.Join(o.workdir, "trace-"+o.workload+".jsonl"))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, each with the number of samples it
// was computed from, plus free-form notes.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	counts            map[string]int
	notes             []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), counts: make(map[string]int)}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.counts[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one line per metric, the notes, and the JSON result line.
// Metrics outside the run's set (end-to-end or per-layer) are an error, as
// is a metric of the set the run did not measure, except a per-layer one
// the workload does not reach, which reads 0.
func (r *report) print(w io.Writer, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	for name, unit := range want {
		if _, ok := r.metrics[name]; !ok && trace {
			r.set(name, 0, unit, 0)
		}
	}
	names := make([]string, 0, len(r.metrics))
	for name, m := range r.metrics {
		if want[name] != m.Unit {
			return fmt.Errorf("metric %s in %s is not a metric of this run", name, m.Unit)
		}
		names = append(names, name)
	}
	if len(names) != len(want) {
		return errors.New("run did not measure every metric")
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %14.6g %-8s n=%d\n", name, r.metrics[name].Value, r.metrics[name].Unit, r.counts[name])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %-8s n=%d\n", "error_rate", errRate, "ratio", r.attempted)
	blob, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
