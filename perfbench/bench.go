package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gpumech/internal/obs"
)

// workload is one benchmark workload bound to its plan.
type workload interface {
	// setup builds, inside dir, the state the timed phase runs against,
	// replacing any earlier set-up. tc is nil on untraced runs.
	setup(dir string, tc *tracing) error
	// measure runs the plan's timed phase against the last set-up.
	measure(tc *tracing) (*phase, error)
	// finish runs the work outside the timed phase: output checks (which
	// mark failed ops), restart samples and the oracle sample.
	finish(ph *phase) error
	// replay calls each layer's public functions on every distinct work
	// unit of the plan, reps times.
	replay(dir string, reps int, tc *tracing) (*replayed, error)
	// close releases the last set-up.
	close()
	plan() *Plan
}

func newWorkload(p *Plan) workload {
	switch p.Workload {
	case "sweep":
		return &sweepWL{p: p}
	case "serve-warm":
		return &serveWL{p: p}
	case "serve-cold":
		return &serveWL{p: p, cold: true}
	default:
		return &validateWL{p: p}
	}
}

// phase is the outcome of one timed phase and the checks after it.
type phase struct {
	ops      []opResult // the plan's ops, in plan order
	wall     time.Duration
	peakLive float64 // MiB

	// restart holds the restart samples. Those that are ops of their own
	// (the serve workloads') set restartOps and count as attempted.
	restart    []opResult
	restartOps bool

	// ref and held are relative CPI errors of the oracle sample: ref at
	// the configurations the repo pins (Table I baseline on registry
	// kernels), held on held-back points.
	ref, held []float64
}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 5

// runEndToEnd sets up setupRepeats times, runs the timed phase on the
// last set-up, and reports every end-to-end metric.
func runEndToEnd(w workload, dir string) (*outcome, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		w.close()
		s, err := timeIt(func() error { return w.setup(dir, nil) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	defer w.close()
	ph, err := w.measure(nil)
	if err != nil {
		return nil, err
	}
	if err := w.finish(ph); err != nil {
		return nil, err
	}
	out := tally(ph)
	lat := millis(ph.ops)
	points := 0
	for _, r := range ph.ops {
		points += r.points
	}
	out.metrics = map[string]float64{
		"setup_s":                  median(setups),
		"ok_ratio":                 float64(out.attempted-out.failed) / float64(out.attempted),
		"points_per_s":             float64(points) / ph.wall.Seconds(),
		"p50_ms":                   quantile(lat, 0.50),
		"p90_ms":                   quantile(lat, 0.90),
		"p99_ms":                   quantile(lat, 0.99),
		"peak_live_mib":            ph.peakLive,
		"restart_p50_ms":           median(millis(ph.restart)),
		"mean_rel_err_pct":         100 * mean(ph.ref),
		"max_rel_err_pct":          100 * maxOf(ph.ref),
		"heldout_mean_rel_err_pct": 100 * mean(ph.held),
	}
	return out, nil
}

// tally counts attempted and failed ops.
func tally(ph *phase) *outcome {
	out := &outcome{attempted: len(ph.ops)}
	rs := ph.ops
	if ph.restartOps {
		out.attempted += len(ph.restart)
		rs = append(append([]opResult(nil), ph.ops...), ph.restart...)
	}
	for _, r := range rs {
		if r.err != nil {
			out.fail(r.err)
		}
	}
	return out
}

// timedPhase runs the plan's ops on the plan's clients while sampling the
// live heap.
func timedPhase(p *Plan, do func(i int, op Op) opResult) *phase {
	ops := p.Ops()
	live := startLiveSampler()
	elapsed := stopwatch()
	rs := closedLoop(p.Clients, len(ops), func(i int) opResult { return do(i, ops[i]) })
	wall := elapsed()
	return &phase{ops: rs, wall: wall, peakLive: live.Stop()}
}

// mean sums in sorted order, so the result does not depend on the order
// the seed gave the ops.
func mean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// tracing is the benchmark's instrumentation for a traced run: the
// registry the program's counters and stage histograms land in, and the
// in-memory tracer holding both the program's spans and the benchmark's
// own spans around each call into a layer.
type tracing struct {
	reg    *obs.Registry
	tracer *obs.Tracer
}

func newTracing() *tracing {
	return &tracing{reg: obs.NewRegistry(), tracer: obs.NewTracer()}
}

// observer returns the program-facing observer (nil when untraced).
func (t *tracing) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return obs.NewObserver(t.reg, t.tracer)
}

// span starts a benchmark span (nil when untraced).
func (t *tracing) span(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.tracer.StartSpan(name)
}

// replayReps is how often the traced run replays each work unit.
const replayReps = 3

// runTraced runs the timed phase twice from fresh set-ups, untraced and
// traced, then replays every distinct work unit through the layers, and
// reports every per-layer metric.
func runTraced(w workload, dir string) (*outcome, error) {
	defer w.close()
	if err := w.setup(dir, nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rt0 := readRuntime()
	plain, err := w.measure(nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	w.close()

	tc := newTracing()
	if err := w.setup(dir, tc); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	snap0 := tc.reg.Snapshot()
	roots0 := len(tc.tracer.Records())
	ph, err := w.measure(tc)
	if err != nil {
		return nil, err
	}
	snap1 := tc.reg.Snapshot()
	recs := tc.tracer.Records()[roots0:]
	if err := w.finish(ph); err != nil {
		return nil, err
	}
	rp, err := w.replay(dir, replayReps, tc)
	if err != nil {
		return nil, err
	}
	out := tally(ph)
	out.metrics = layerMetrics(w.plan(), layerInputs{
		plain: plain, traced: ph, rt0: rt0, rt1: rt1,
		delta: deltaOf(snap0, snap1), spans: recs, replay: rp,
	})
	if err := writeSpans(tc, w.plan()); err != nil {
		return nil, err
	}
	return out, nil
}

// writeSpans writes every span of the traced run to .bench_build.
func writeSpans(tc *tracing, p *Plan) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", p.Workload, p.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tc.tracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
