package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"gpumech"
	"gpumech/internal/dse"
)

// sweepWL is the sweep workload: one dse.Run per mix kernel over the
// warps x MSHRs x bandwidth grid under rr and gto, against a trace cache
// that set-up fills.
type sweepWL struct {
	p      *Plan
	cache  string
	golden map[string]map[string]goldenEntry // policy -> kernel -> entry
	res    []*dse.Result                     // per op, for the checks
}

// goldenEntry is one pinned estimate of testdata/golden.
type goldenEntry struct {
	CPI               float64   `json:"cpi"`
	MultithreadingCPI float64   `json:"multithreadingCPI"`
	ContentionCPI     float64   `json:"contentionCPI"`
	RepWarp           int       `json:"repWarp"`
	Stack             []float64 `json:"stack"`
}

func (w *sweepWL) plan() *Plan { return w.p }

func (w *sweepWL) setup(dir string, tc *tracing) error {
	if w.golden == nil {
		w.golden = map[string]map[string]goldenEntry{}
		for _, pol := range policies {
			var g map[string]goldenEntry
			if err := readJSON(filepath.Join("testdata", "golden", pol+".json"), &g); err != nil {
				return err
			}
			w.golden[pol] = g
		}
	}
	cache, err := os.MkdirTemp(dir, "traces-")
	if err != nil {
		return err
	}
	w.cache = cache
	for _, k := range w.p.Kernels() {
		sp := tc.span("setup.trace-cache")
		_, err := gpumech.NewSession(k, gpumech.WithTraceCache(cache),
			gpumech.WithObserver(tc.observer().WithSpan(sp)))
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *sweepWL) close() {
	if w.cache != "" {
		os.RemoveAll(w.cache)
		w.cache = ""
	}
}

// spec is the sweep of one kernel.
func (w *sweepWL) spec(kernel string) dse.Spec {
	var warps, mshrs, bw []float64
	seen := map[string]bool{}
	add := func(axis string, v float64, to *[]float64) {
		key := fmt.Sprint(axis, v)
		if !seen[key] {
			seen[key] = true
			*to = append(*to, v)
		}
	}
	for _, t := range w.p.Grid {
		add("w", float64(t.Warps), &warps)
		add("m", float64(t.MSHRs), &mshrs)
		add("b", t.BW, &bw)
	}
	return dse.Spec{
		Kernels:    []string{kernel},
		Policies:   policies,
		TraceCache: w.cache,
		Parameters: map[string]dse.Axis{
			"warps":     {Values: warps},
			"mshrs":     {Values: mshrs},
			"bandwidth": {Values: bw},
		},
	}
}

func (w *sweepWL) measure(tc *tracing) (*phase, error) {
	w.res = make([]*dse.Result, len(w.p.Ops()))
	ph := timedPhase(w.p, func(i int, op Op) opResult {
		sp := tc.span("op")
		sp.SetStr("kernel", op.Kernel)
		defer sp.End()
		res, err := dse.Run(context.Background(), w.spec(op.Kernel),
			dse.Options{Obs: tc.observer().WithSpan(sp)})
		if err != nil {
			return opResult{err: err}
		}
		w.res[i] = res
		return opResult{points: len(res.Points)}
	})
	return ph, nil
}

// point returns the op result's point at tuple t under policy pol.
func point(res *dse.Result, t tuple, pol string) *dse.Point {
	for i := range res.Points {
		p := &res.Points[i]
		if p.Policy == pol && int(p.Params["warps"]) == t.Warps &&
			int(p.Params["mshrs"]) == t.MSHRs && relClose(p.Params["bandwidth"], t.BW, goldenTol) {
			return p
		}
	}
	return nil
}

// finish checks every sweep's baseline points against the golden files
// and runs the oracle at the
// baseline and the held-back corner of each kernel.
func (w *sweepWL) finish(ph *phase) error {
	ops := w.p.Ops()
	for i, op := range ops {
		if ph.ops[i].err != nil {
			continue
		}
		for _, pol := range policies {
			if err := matchGolden(point(w.res[i], baseline, pol), w.golden[pol][op.Kernel]); err != nil {
				ph.ops[i].err = fmt.Errorf("sweep %s %s: %w", op.Kernel, pol, err)
				break
			}
		}
	}
	// Every dse.Run starts from the on-disk trace cache, as a restarted
	// process does.
	ph.restart = ph.ops

	first := map[string]*dse.Result{}
	for i, op := range ops {
		if w.res[i] != nil && first[op.Kernel] == nil {
			first[op.Kernel] = w.res[i]
		}
	}
	type sample struct {
		kernel string
		t      tuple
		pol    string
		held   bool
	}
	var samples []sample
	for _, k := range w.p.Kernels() {
		for _, pol := range policies {
			samples = append(samples, sample{k, baseline, pol, false}, sample{k, heldBack, pol, true})
		}
	}
	errs := make([]float64, len(samples))
	sessions := map[string]*gpumech.Session{}
	for _, k := range w.p.Kernels() {
		s, err := gpumech.NewSession(k, gpumech.WithTraceCache(w.cache))
		if err != nil {
			return err
		}
		sessions[k] = s
	}
	err := parallelDo(2, len(samples), func(i int) error {
		s := samples[i]
		res := first[s.kernel]
		if res == nil {
			return fmt.Errorf("no sweep result for %s", s.kernel)
		}
		pt := point(res, s.t, s.pol)
		if pt == nil {
			return fmt.Errorf("sweep %s has no point at %+v/%s", s.kernel, s.t, s.pol)
		}
		pol, err := gpumech.ParsePolicy(s.pol)
		if err != nil {
			return err
		}
		orc, err := sessions[s.kernel].Oracle(configFor(s.t), pol)
		if err != nil {
			return err
		}
		errs[i] = gpumech.RelativeError(pt.CPI, orc.CPI)
		return nil
	})
	if err != nil {
		return err
	}
	for i, s := range samples {
		if s.held {
			ph.held = append(ph.held, errs[i])
		} else {
			ph.ref = append(ph.ref, errs[i])
		}
	}
	return nil
}

// configFor is the configuration a tuple names, built the way
// /v1/evaluate builds it.
func configFor(t tuple) gpumech.Config {
	return gpumech.DefaultConfig().WithWarps(t.Warps).WithMSHRs(t.MSHRs).WithBandwidth(t.BW)
}

// goldenTol is the golden suite's relative tolerance.
const goldenTol = 1e-9

// relClose reports whether a and b agree within the relative tolerance.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// matchGolden compares one sweep point with its pinned estimate.
func matchGolden(p *dse.Point, g goldenEntry) error {
	if p == nil {
		return fmt.Errorf("no baseline point")
	}
	if len(g.Stack) == 0 {
		return fmt.Errorf("no golden entry")
	}
	if !relClose(p.CPI, g.CPI, goldenTol) || !relClose(p.MultithreadingCPI, g.MultithreadingCPI, goldenTol) ||
		!relClose(p.ContentionCPI, g.ContentionCPI, goldenTol) || p.RepWarp != g.RepWarp {
		got, _ := json.Marshal(p)
		return fmt.Errorf("baseline point %s differs from golden %+v", got, g)
	}
	for i, v := range g.Stack {
		if i >= len(p.Stack) || !relClose(p.Stack[i], v, goldenTol) {
			return fmt.Errorf("stack[%d] = %v, golden %v", i, p.Stack, g.Stack)
		}
	}
	return nil
}
