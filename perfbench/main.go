// Command perfbench measures GPUMech's user flows end to end and layer by
// layer. One invocation runs one workload in-process against the public
// entry points (dse.Run, serve.New behind a loopback httptest server,
// accuracy.Run, gpumech.Session):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// Every run executes a fixed plan of whole passes (see NewPlan); the seed
// changes only the order of the work and draws that cost the same. With
// --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric of BENCHMARK.json; with --trace 1 the same plan
// runs traced and the object holds every per-layer metric. The command
// exits non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: orders the plan's ops")
	seconds := fs.Int("seconds", 10, "nominal run length; sets the number of whole passes")
	traced := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json", filepath.Join("perfbench", "layers.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	plan, err := NewPlan(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	w := newWorkload(plan)
	var out *outcome
	if *traced == 1 {
		out, err = runTraced(w, dir)
	} else {
		out, err = runEndToEnd(w, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	declared := spec.EndToEnd
	if *traced == 1 {
		declared = spec.PerLayer
	}
	line, err := out.render(declared)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, e := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	fmt.Println(line)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// outcome is what one run prints.
type outcome struct {
	attempted int
	failed    int
	failures  []string // the first few failure messages, for standard error
	metrics   map[string]float64
}

// fail records one failed op.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, err.Error())
	}
}

// render formats the result line with every declared metric and its unit,
// refusing to print a metric set that differs from the declared one.
func (o *outcome) render(declared []Metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(declared))
	for _, m := range declared {
		v, ok := o.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		ms[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if len(o.metrics) != len(declared) {
		for n := range o.metrics {
			if _, ok := ms[n]; !ok {
				return "", fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", n)
			}
		}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
	return string(data), err
}
