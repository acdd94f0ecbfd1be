package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Metric is one metric declared in BENCHMARK.json.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json: the workloads and every metric's name and unit.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// Layer is one entry of layers.json: per workload, the end-to-end
// metrics one program layer should move or leave unchanged. A per-layer
// metric belongs to the layer its name starts with, up to the first '.'.
type Layer struct {
	Layer    string              `json:"layer"`
	Moves    map[string][]string `json:"moves"`
	NoChange map[string][]string `json:"no_change"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json and checks layers.json against it: every
// metric name is well formed, every per-layer metric's layer is in
// layers.json, and every layer's map names declared workloads and
// end-to-end metrics.
func loadSpec(benchPath, layersPath string) (*Spec, error) {
	var spec Spec
	if err := readJSON(benchPath, &spec); err != nil {
		return nil, err
	}
	var layers struct {
		Layers []Layer `json:"layers"`
	}
	if err := readJSON(layersPath, &layers); err != nil {
		return nil, err
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	known := map[string]bool{}
	for _, l := range layers.Layers {
		known[l.Layer] = true
		for _, table := range []map[string][]string{l.Moves, l.NoChange} {
			for w, ms := range table {
				if !workloads[w] {
					return nil, fmt.Errorf("%s: layer %s names unknown workload %s", layersPath, l.Layer, w)
				}
				for _, m := range ms {
					if !e2e[m] {
						return nil, fmt.Errorf("%s: layer %s names unknown end-to-end metric %s", layersPath, l.Layer, m)
					}
				}
			}
		}
	}
	for _, m := range append(append([]Metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			return nil, fmt.Errorf("%s: bad metric name %q", benchPath, m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		if l, _, _ := strings.Cut(m.Name, "."); !known[l] {
			return nil, fmt.Errorf("%s: per-layer metric %s belongs to no layer of %s", benchPath, m.Name, layersPath)
		}
	}
	return &spec, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
