package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// The benchmark runs from the repository root, where BENCHMARK.json,
// testdata and .bench_build live.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var workloads = []string{"sweep", "serve-warm", "serve-cold", "validate"}

func units(p *Plan) []string {
	var out []string
	for _, op := range p.Ops() {
		out = append(out, op.Unit())
	}
	sort.Strings(out)
	return out
}

func TestSameSeedSamePlan(t *testing.T) {
	for _, w := range workloads {
		a, err := NewPlan(w, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewPlan(w, 7, 10)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w)
		}
	}
}

func TestSeedsChangeOrderNotWork(t *testing.T) {
	for _, w := range workloads {
		a, _ := NewPlan(w, 1, 10)
		b, _ := NewPlan(w, 2, 10)
		if reflect.DeepEqual(a.Ops(), b.Ops()) {
			t.Errorf("%s: seeds 1 and 2 give the same op order", w)
		}
		if !reflect.DeepEqual(units(a), units(b)) {
			t.Errorf("%s: seeds 1 and 2 give different (kernel, grid) units", w)
		}
	}
}

func TestPlanSizes(t *testing.T) {
	want := map[string]int{"sweep": 49, "serve-warm": 1050, "serve-cold": 1680, "validate": 64}
	for w, n := range want {
		p, _ := NewPlan(w, 1, 10)
		if got := len(p.Ops()); got != n {
			t.Errorf("%s: %d ops, want %d", w, got, n)
		}
	}
}

// TestColdPassOverflowsSessionCache checks that every serve-cold pass
// sends more never-seen units to its daemon than the default session
// cache holds (serve.Config.MaxSessions, 256), so the cache evicts.
func TestColdPassOverflowsSessionCache(t *testing.T) {
	p, _ := NewPlan("serve-cold", 1, 10)
	for i, pass := range p.Passes {
		seen := map[string]bool{}
		restarts := 0
		for _, op := range pass {
			seen[op.Unit()] = true
			if restarted(op) {
				restarts++
			}
		}
		if len(seen) != len(pass) || len(seen) <= 256 {
			t.Errorf("pass %d: %d distinct units in %d requests, want all distinct and more than 256", i, len(seen), len(pass))
		}
		if restarts == 0 {
			t.Errorf("pass %d: no restarted requests", i)
		}
	}
	restarts := 0
	for _, op := range p.Ops() {
		if restarted(op) {
			restarts++
		}
	}
	if restarts < 100 {
		t.Errorf("%d restarted requests a run, want at least 100", restarts)
	}
}

func TestSpecAgreesWithLayers(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json", filepath.Join("perfbench", "layers.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, plans exist for %v", names, workloads)
	}
}

// smallPlan is a plan of each workload over one cheap kernel.
func smallPlan(w string, seed int64) *Plan {
	k := "rodinia_hotspot"
	p := &Plan{Workload: w, Seed: seed, Clients: 2}
	if w == "sweep" || w == "validate" {
		p.Clients = 1
	}
	switch w {
	case "sweep":
		p.Grid = []tuple{baseline, heldBack}
		p.Passes = [][]Op{{{Kernel: k}}}
	case "serve-warm":
		p.Passes = [][]Op{{
			{Kernel: k, Cfg: baseline, Policy: "rr"}, {Kernel: k, Cfg: heldBack, Policy: "gto"},
			{Kernel: k, Cfg: baseline, Policy: "gto"}, {Kernel: k, Cfg: heldBack, Policy: "rr"},
		}}
	case "serve-cold":
		bs := coldBlocks(k)
		p.Passes = [][]Op{
			{{Kernel: k, Blocks: bs[0], Cfg: baseline, Policy: "rr"}, {Kernel: k, Blocks: bs[len(bs)-1], Cfg: heldBack, Policy: "gto"}},
			{{Kernel: k, Blocks: bs[len(bs)-1], Cfg: baseline, Policy: "gto"}, {Kernel: k, Blocks: bs[0], Cfg: heldBack, Policy: "rr"}},
		}
	case "validate":
		p.Passes = [][]Op{{{Kernel: k}, {Kernel: genName(3), GenSeed: 3}}}
	}
	if seed != 1 {
		for _, pass := range p.Passes {
			sort.SliceStable(pass, func(a, b int) bool { return pass[a].Unit() > pass[b].Unit() })
		}
	}
	return p
}

// countMetrics are the exact work counts that must not move across runs
// or seeds.
var countMetrics = []string{
	"trace.kernels_built", "cache.simulations", "cache.memo_hit_ratio",
	"interval.warps_profiled", "interval.useful_ratio", "model.estimates",
	"timing.runs", "store.puts", "store.hits", "store.misses",
}

// TestSmallPlansEmitEveryMetric runs a small plan of each workload end to
// end and traced, under two seeds: every run must pass its checks and
// print exactly the declared metric sets, and the work counts must agree.
func TestSmallPlansEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("BENCHMARK.json", filepath.Join("perfbench", "layers.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var counts []map[string]float64
			for _, seed := range []int64{1, 2} {
				dir := t.TempDir()
				out, err := runEndToEnd(newWorkload(smallPlan(w, seed)), dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := out.render(spec.EndToEnd); err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 {
					t.Fatalf("end to end: %d of %d ops failed: %v", out.failed, out.attempted, out.failures)
				}
				out, err = runTraced(newWorkload(smallPlan(w, seed)), dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := out.render(spec.PerLayer); err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 {
					t.Fatalf("traced: %d of %d ops failed: %v", out.failed, out.attempted, out.failures)
				}
				c := map[string]float64{}
				for _, m := range countMetrics {
					c[m] = out.metrics[m]
				}
				counts = append(counts, c)
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Errorf("work counts differ across seeds:\n%v\n%v", counts[0], counts[1])
			}
			if counts[0]["model.estimates"] == 0 {
				t.Errorf("no estimates counted: %v", counts[0])
			}
		})
	}
}
