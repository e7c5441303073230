package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	adsala "repro"
	"repro/internal/core"
	"repro/internal/sampling"
)

// testTable is the committed table. Tests run at the table's GOMAXPROCS so
// the mirrored install config matches it on any host.
var testTable *timingTable

func TestMain(m *testing.M) {
	tab, err := readTable("table.json")
	if err != nil {
		panic(err)
	}
	testTable = tab
	runtime.GOMAXPROCS(tab.Host.GOMAXPROCS)
	os.Exit(m.Run())
}

func gatherCfg() core.GatherConfig { return localGather(runtime.GOMAXPROCS(0)) }

func TestTableGathererReturnsSampledShapes(t *testing.T) {
	for _, op := range trainedOps {
		cfg := gatherCfg()
		cfg.Op = op
		got, err := tableGatherer{testTable}.Gather(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		want, err := core.SampleOpShapes(cfg.Domain, cfg.Seed, op, 0, cfg.NumShapes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d timings for %d sampled shapes", op, len(got), len(want))
		}
		for i := range want {
			if got[i].Shape != want[i] {
				t.Fatalf("%v shape %d: got %v, sampled %v", op, i, got[i].Shape, want[i])
			}
			for j, ct := range got[i].Times {
				if ct.Threads != cfg.Candidates[j] || ct.Seconds <= 0 {
					t.Fatalf("%v %v: timing %d is %+v", op, want[i], j, ct)
				}
			}
		}
	}
}

func TestTableGathererFailsOnGaps(t *testing.T) {
	cfg := gatherCfg()
	cfg.Op = trainedOps[1]
	name := cfg.Op.String()

	missingShape := *testTable
	missingShape.Ops = map[string][]core.ShapeTimings{name: testTable.Ops[name][1:]}
	if _, err := (tableGatherer{&missingShape}).Gather(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "no syrk timing for shape") {
		t.Errorf("shape missing from the table: err = %v", err)
	}

	missingThreads := *testTable
	sweep := append([]core.ShapeTimings(nil), testTable.Ops[name]...)
	sweep[3].Times = sweep[3].Times[:len(sweep[3].Times)-1]
	missingThreads.Ops = map[string][]core.ShapeTimings{name: sweep}
	if _, err := (tableGatherer{&missingThreads}).Gather(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "threads") {
		t.Errorf("candidate missing from the table: err = %v", err)
	}

	other := cfg
	other.NumShapes++
	if _, err := (tableGatherer{testTable}).Gather(context.Background(), other); err == nil {
		t.Error("a config the table was not recorded for was answered")
	}
}

func TestLoadTableRefusesOtherHost(t *testing.T) {
	tab := *testTable
	tab.Host.CPUModel += " (elsewhere)"
	path := t.TempDir() + "/table.json"
	if err := tab.save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTable(path); err == nil {
		t.Fatal("a table recorded on another host was accepted")
	}
}

func TestTrainingFromTableIsDeterministic(t *testing.T) {
	var specs []spec
	for _, sh := range []streamShape{smallStream, largeStream} {
		s, err := buildSpecs(sh, 5, testTable.trainingShapes())
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s...)
	}
	decide := func() []int {
		clib, err := trainFromTable(testTable)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := publicLibrary(clib, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(specs))
		for i, s := range specs {
			out[i] = min(lib.OptimalThreadsOp(adsala.Op(s.op()), s.m, s.k, s.n), runtime.GOMAXPROCS(0))
		}
		return out
	}
	a, b := decide(), decide()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%v: %d threads after one training, %d after another", specs[i], a[i], b[i])
		}
	}
}

func TestStreamsAreSeededAndHeldOut(t *testing.T) {
	held := testTable.trainingShapes()
	a, err := buildSpecs(smallStream, 9, held)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildSpecs(smallStream, 9, held)
	c, _ := buildSpecs(smallStream, 10, held)
	if len(a) != int(numMethods)*smallStream.levels*smallStream.buckets {
		t.Fatalf("%d calls", len(a))
	}
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs for one seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
		if held[a[i].op()][shapeOf(a[i])] {
			t.Errorf("%v is a training shape", a[i])
		}
		if f := a[i].flops(); f < smallStream.lo*(1-smallStream.tol) || f > smallStream.hi*(1+smallStream.tol) {
			t.Errorf("%v has %g FLOPs", a[i], f)
		}
	}
	if same == len(a) {
		t.Error("another seed drew the same stream")
	}
}

// TestWorkloadSmoke runs each workload briefly, untraced and traced, and
// requires the output check and the decision-parity guard to pass and
// every metric of the run's set to be printed.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range []string{"stream-small", "serve-mixed", "stream-large"} {
		for _, trace := range []bool{false, true} {
			if w == "stream-large" && trace && testing.Short() {
				continue
			}
			o := options{workload: w, seed: 4, dur: 500 * time.Millisecond, trace: trace, workdir: t.TempDir(), table: testTable}
			rep, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %s", w, trace, out.String())
			}
		}
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		want   map[string]string
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(set.listed) != len(set.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(set.listed), len(set.want))
		}
		for _, m := range set.listed {
			if set.want[m.Name] != m.Unit {
				t.Errorf("BENCHMARK.json metric %s in %s is not reported", m.Name, m.Unit)
			}
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
}

func shapeOf(s spec) sampling.Shape { return sampling.Shape{M: s.m, K: s.k, N: s.n} }

func TestKeepQuiet(t *testing.T) {
	sec := func(steal ...int64) []window {
		ws := make([]window, len(steal))
		for i, s := range steal {
			ws[i] = window{time.Second, s}
		}
		return ws
	}
	keep, _ := keepQuiet(sec(0, 50, 1, 50, 50, 50))
	if want := []bool{true, false, true, false, false, false}; !reflect.DeepEqual(keep, want) {
		t.Errorf("quiet windows: keep = %v, want %v", keep, want)
	}
	keep, stolen := keepQuiet(sec(30, 20, 40))
	if want := []bool{false, true, false}; !reflect.DeepEqual(keep, want) {
		t.Errorf("no quiet window: keep = %v, want the least-stolen third %v", keep, want)
	}
	if want := 90.0 / (3 * float64(runtime.NumCPU()) * userHZ); stolen != want {
		t.Errorf("stolen = %v, want %v", stolen, want)
	}
}
