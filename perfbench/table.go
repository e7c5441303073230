package main

// The timing table is the benchmark's fixed model input. A fresh
// `-platform local` install times its own sweep, and on a 2-vCPU host four
// installs picked four different model families whose clamped decisions
// agreed on only 63–83% of (op, shape) pairs, so a stream's speed depended
// on which install ran it. The table records one such sweep, with the host
// it was measured on, and setup trains from it through core.Train: the
// model a run uses is then a function of the table alone.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// trainSeed is the seed of the mirrored install (adsala.TrainOptions
// defaults a zero seed to 1). Workload seeds must never equal it.
const trainSeed = 1

// trainedOps are the ops the mirrored `-ops gemm,syrk,syr2k` install
// trains; GEMM is always trained by core.Train.
var trainedOps = []ops.Op{ops.GEMM, ops.SYRK, ops.SYR2K}

// localGather mirrors the gather config adsala.Train builds for
// `-platform local` on a host with procs GOMAXPROCS: the 64 MB domain
// capped at MaxDim 768, 40 shapes, 3 timing repetitions and the
// DefaultCandidates(2·GOMAXPROCS) thread counts.
func localGather(procs int) core.GatherConfig {
	dom := sampling.DefaultDomain().WithCapMB(64)
	dom.MaxDim = 768
	return core.GatherConfig{
		Domain:     dom,
		NumShapes:  40,
		Candidates: core.DefaultCandidates(2 * procs),
		Iters:      3,
		Seed:       trainSeed,
	}
}

// hostFingerprint identifies the machine a table was timed on. A table is
// only valid there: its timings decide which thread counts the model
// prefers.
type hostFingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
}

// currentHost returns this machine's fingerprint.
func currentHost() hostFingerprint {
	return hostFingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// tableConfig is the gather configuration a table was recorded under.
type tableConfig struct {
	Seed       int64           `json:"seed"`
	Shapes     int             `json:"shapes"`
	Iters      int             `json:"iters"`
	Domain     sampling.Domain `json:"domain"`
	Candidates []int           `json:"candidates"`
}

func configOf(g core.GatherConfig) tableConfig {
	return tableConfig{Seed: g.Seed, Shapes: g.NumShapes, Iters: g.Iters, Domain: g.Domain, Candidates: g.Candidates}
}

// timingTable is the stored sweep: per op wire name, the timings of every
// sampled shape at every candidate thread count.
type timingTable struct {
	Host hostFingerprint `json:"host"`
	// GoVersion, Commit and RecordedAt are provenance: they say what
	// produced the table but do not gate its use.
	GoVersion  string                         `json:"go_version"`
	Commit     string                         `json:"commit"`
	RecordedAt string                         `json:"recorded_at"`
	Config     tableConfig                    `json:"config"`
	Ops        map[string][]core.ShapeTimings `json:"ops"`
}

// recordTable times the mirrored local sweep of every trained op on this
// host with the real kernels (about 12 s on a 2-vCPU host).
func recordTable() (*timingTable, error) {
	g := localGather(runtime.GOMAXPROCS(0))
	g.Timer = simtime.NewRealTimer(g.Iters)
	tab := &timingTable{
		Host:       currentHost(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Config:     configOf(g),
		Ops:        make(map[string][]core.ShapeTimings),
	}
	for _, op := range trainedOps {
		g.Op = op
		data, err := core.Gather(g)
		if err != nil {
			return nil, fmt.Errorf("record %v: %w", op, err)
		}
		tab.Ops[op.String()] = data
	}
	return tab, nil
}

// gitCommit names the commit the table is recorded at ("unknown" outside a
// git checkout).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (t *timingTable) save(path string) error {
	blob, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// loadTable reads a table and refuses it when it was timed on another host.
func loadTable(path string) (*timingTable, error) {
	tab, err := readTable(path)
	if err != nil {
		return nil, err
	}
	if host := currentHost(); tab.Host != host {
		return nil, fmt.Errorf("timing table %s was recorded on %+v, this host is %+v: re-record it with --record", path, tab.Host, host)
	}
	return tab, nil
}

// readTable parses a table without checking where it was recorded.
func readTable(path string) (*timingTable, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("timing table: %w", err)
	}
	var tab timingTable
	if err := json.Unmarshal(blob, &tab); err != nil {
		return nil, fmt.Errorf("timing table %s: %w", path, err)
	}
	return &tab, nil
}

// tableGatherer is a core.Gatherer answering from a recorded table. It
// returns exactly the shapes core.SampleOpShapes draws for the requested
// config, and fails on any shape or candidate the table lacks: a gap is
// never filled in.
type tableGatherer struct{ tab *timingTable }

func (g tableGatherer) Gather(ctx context.Context, cfg core.GatherConfig) ([]core.ShapeTimings, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if got := configOf(cfg); !reflect.DeepEqual(got, g.tab.Config) {
		return nil, fmt.Errorf("timing table recorded for %+v, asked for %+v", g.tab.Config, got)
	}
	shapes, err := core.SampleOpShapes(cfg.Domain, cfg.Seed, cfg.Op, 0, cfg.NumShapes)
	if err != nil {
		return nil, err
	}
	byShape := make(map[sampling.Shape]core.ShapeTimings)
	for _, st := range g.tab.Ops[cfg.Op.String()] {
		byShape[st.Shape] = st
	}
	out := make([]core.ShapeTimings, len(shapes))
	for i, sh := range shapes {
		st, ok := byShape[sh]
		if !ok {
			return nil, fmt.Errorf("timing table has no %v timing for shape %v", cfg.Op, sh)
		}
		times := make([]core.CandidateTime, len(cfg.Candidates))
		for j, p := range cfg.Candidates {
			secs, ok := st.TimeAt(p)
			if !ok {
				return nil, fmt.Errorf("timing table has no %v timing for shape %v at %d threads", cfg.Op, sh, p)
			}
			times[j] = core.CandidateTime{Threads: p, Seconds: secs}
		}
		out[i] = core.ShapeTimings{Shape: sh, Times: times}
	}
	return out, nil
}

// trainFromTable runs the mirrored local install through core.Train with
// the table as its gatherer.
func trainFromTable(tab *timingTable) (*core.Library, error) {
	procs := runtime.GOMAXPROCS(0)
	cfg := core.DefaultTrainConfig(localGather(procs), "local", procs)
	cfg.Models = core.DefaultModels(trainSeed, false)
	cfg.Ops = trainedOps
	cfg.Gatherer = tableGatherer{tab}
	res, err := core.Train(cfg)
	if err != nil {
		return nil, err
	}
	return res.Library, nil
}

// trainingShapes returns the shapes the table trained each op on, so
// workloads can hold them out.
func (t *timingTable) trainingShapes() map[ops.Op]map[sampling.Shape]bool {
	out := make(map[ops.Op]map[sampling.Shape]bool)
	for _, op := range trainedOps {
		set := make(map[sampling.Shape]bool)
		for _, st := range t.Ops[op.String()] {
			set[st.Shape] = true
		}
		out[op] = set
	}
	return out
}
