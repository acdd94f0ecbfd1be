package main

import (
	"fmt"
	"path/filepath"

	"gpumech/internal/accuracy"
	"gpumech/internal/gen"
	"gpumech/internal/kernels"
)

// validateWL is the validate workload: one accuracy.Run per kernel at the
// Table I baseline under rr and gto, over the paper set plus held-back
// generated kernels. It is the only workload whose ops run the oracle.
type validateWL struct {
	p        *Plan
	envelope map[string]envelopeEntry
	reports  []*accuracy.Report // per op
}

// envelopeEntry is one policy of testdata/accuracy/envelope.json.
type envelopeEntry struct {
	N          int     `json:"n"`
	MeanRelErr float64 `json:"meanRelErr"`
	MaxRelErr  float64 `json:"maxRelErr"`
}

func (w *validateWL) plan() *Plan { return w.p }

// setup reads the envelope and builds every op's program and inputs, the
// work accuracy.Run starts from.
func (w *validateWL) setup(dir string, tc *tracing) error {
	if err := readJSON(filepath.Join("testdata", "accuracy", "envelope.json"), &w.envelope); err != nil {
		return err
	}
	for _, op := range w.p.Passes[0] {
		if op.GenSeed != 0 {
			if _, err := gen.Generate(op.GenSeed, 0); err != nil {
				return err
			}
			continue
		}
		info, err := kernels.Get(op.Kernel)
		if err != nil {
			return err
		}
		if _, err := info.Build(kernels.Scale{Blocks: kernels.DefaultBlocks(info.WarpsPerBlock), Seed: 1}); err != nil {
			return err
		}
	}
	return nil
}

func (w *validateWL) close() {}

// options is the accuracy.Run call of one op.
func options(op Op) accuracy.Options {
	o := accuracy.Options{Kernels: []string{op.Kernel}, Axes: accuracy.BaselineAxis(), Seed: 1}
	if op.GenSeed != 0 {
		o = accuracy.Options{Kernels: []string{}, GenCount: 1, Axes: accuracy.BaselineAxis(), Seed: op.GenSeed}
	}
	return o
}

func (w *validateWL) measure(tc *tracing) (*phase, error) {
	w.reports = make([]*accuracy.Report, len(w.p.Ops()))
	return timedPhase(w.p, func(i int, op Op) opResult {
		sp := tc.span("op")
		sp.SetStr("kernel", op.Kernel)
		defer sp.End()
		o := options(op)
		o.Obs = tc.observer().WithSpan(sp)
		rep, err := accuracy.Run(o)
		if err != nil {
			return opResult{err: err}
		}
		if len(rep.Results) != 2 || rep.Results[0].Kernel != op.Kernel {
			return opResult{err: fmt.Errorf("validate %s: %d results", op.Kernel, len(rep.Results))}
		}
		w.reports[i] = rep
		return opResult{points: rep.EvaluatedPoints}
	}), nil
}

// finish checks the paper set's per-policy mean and max error against the
// pinned envelope and splits the errors into the reference (paper set)
// and held-back (generated) samples.
func (w *validateWL) finish(ph *phase) error {
	// Every accuracy.Run starts from nothing, as after a restart.
	ph.restart = ph.ops
	paper := map[string][]float64{}
	var paperOps []int
	for i, op := range w.p.Ops() {
		rep := w.reports[i]
		if rep == nil {
			continue
		}
		for _, r := range rep.Results {
			if op.GenSeed != 0 {
				ph.held = append(ph.held, r.RelErr)
				continue
			}
			ph.ref = append(ph.ref, r.RelErr)
			paper[r.Policy] = append(paper[r.Policy], r.RelErr)
		}
		if op.GenSeed == 0 {
			paperOps = append(paperOps, i)
		}
	}
	if len(ph.ref) == 0 || len(ph.held) == 0 {
		return fmt.Errorf("validate: no successful ops")
	}
	// The envelope pins the whole paper set; a partial plan (as the
	// benchmark's own tests build) has nothing to compare against.
	if len(paperOps) != len(kernels.PaperNames())*len(w.p.Passes) {
		return nil
	}
	for pol, want := range w.envelope {
		got := paper[pol]
		var err error
		switch {
		case len(got) != want.N*len(w.p.Passes):
			err = fmt.Errorf("validate %s: %d paper points, envelope has %d", pol, len(got), want.N)
		case !relClose(mean(got), want.MeanRelErr, goldenTol):
			err = fmt.Errorf("validate %s: mean rel err %v, envelope %v", pol, mean(got), want.MeanRelErr)
		case !relClose(maxOf(got), want.MaxRelErr, goldenTol):
			err = fmt.Errorf("validate %s: max rel err %v, envelope %v", pol, maxOf(got), want.MaxRelErr)
		}
		if err != nil {
			for _, i := range paperOps {
				ph.ops[i].err = err
			}
			return nil
		}
	}
	return nil
}
