package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"

	"gpumech"
	"gpumech/internal/obs"
	"gpumech/internal/runjson"
	"gpumech/internal/serve"
)

// serveWL is the serve-warm or serve-cold workload: the default daemon
// (metrics on, JSON request logs, flight recorder) behind a loopback
// httptest server, driven by two closed-loop clients.
//
// serve-warm has no store; set-up builds one session per mix kernel, and
// the timed phase sends rounds of default-grid requests. On serve-cold
// every timed request of the cold phase is a never-seen small-grid
// (kernel, blocks) pair, more of them than the daemon's session cache
// holds; in the restart phase daemons over a filled profile store replay
// the smallest of them.
type serveWL struct {
	p    *Plan
	cold bool

	dir    string // workspace for profile stores
	store  string
	daemon *daemon
	// refs are in-process sessions answering the checked requests, keyed
	// by unit; refBody holds serve-cold's reference bodies from set-up.
	refs    map[string]*gpumech.Session
	refBody map[int][]byte
	bodies  [][]byte // response bodies of the timed ops
}

// daemon is one serve.Server behind an httptest loopback server.
type daemon struct {
	ts *httptest.Server
}

// newDaemon starts the default daemon: metrics on, JSON request logs
// (discarded), the flight recorder on, and a tracer only on traced runs.
func newDaemon(store string, tc *tracing) *daemon {
	cfg := serve.Config{
		ProfileStoreDir: store,
		Logger:          slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Metrics:         obs.NewRegistry(),
	}
	if tc != nil {
		cfg.Metrics = tc.reg
		cfg.Tracer = tc.tracer
	}
	return &daemon{ts: httptest.NewServer(serve.New(cfg).Handler())}
}

func (d *daemon) close() {
	if d != nil {
		d.ts.Close()
	}
}

// post sends one /v1/evaluate request and returns the 200 body.
func (d *daemon) post(op Op) ([]byte, error) {
	req, err := json.Marshal(serve.EvaluateRequest{
		Kernel: op.Kernel, Policy: op.Policy, Blocks: op.Blocks,
		Warps: op.Cfg.Warps, MSHRs: op.Cfg.MSHRs, BW: op.Cfg.BW,
	})
	if err != nil {
		return nil, err
	}
	resp, err := d.ts.Client().Post(d.ts.URL+"/v1/evaluate", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", op.Unit(), resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (w *serveWL) plan() *Plan { return w.p }

// checked reports whether the body of op i is compared with an in-process
// reference. serve-warm checks every 25th request; serve-cold checks the
// smallest and largest grid of every kernel.
func (w *serveWL) checked(i int, op Op) bool {
	if w.cold {
		bs := coldBlocks(op.Kernel)
		return op.Blocks == bs[0] || op.Blocks == bs[len(bs)-1]
	}
	return i%25 == 0
}

func (w *serveWL) setup(dir string, tc *tracing) error {
	if !w.cold {
		w.daemon = newDaemon("", tc)
		for _, k := range w.p.Kernels() {
			if _, err := w.daemon.post(Op{Kernel: k, Cfg: baseline, Policy: "rr"}); err != nil {
				return err
			}
		}
		return nil
	}
	w.dir = dir
	if err := w.freshStore(tc); err != nil {
		return err
	}
	// The reference bodies are computed before the timed phase, by
	// in-process sessions without a store.
	w.refs = map[string]*gpumech.Session{}
	w.refBody = map[int][]byte{}
	for i, op := range w.p.Ops() {
		if !w.checked(i, op) {
			continue
		}
		s, err := w.session(op)
		if err != nil {
			return err
		}
		if w.refBody[i], err = referenceBody(s, op); err != nil {
			return err
		}
	}
	return nil
}

// session returns the in-process reference session of op's unit.
func (w *serveWL) session(op Op) (*gpumech.Session, error) {
	if s := w.refs[op.Unit()]; s != nil {
		return s, nil
	}
	var opts []gpumech.Option
	if op.Blocks > 0 {
		opts = append(opts, gpumech.WithBlocks(op.Blocks))
	}
	s, err := gpumech.NewSession(op.Kernel, opts...)
	if err != nil {
		return nil, err
	}
	w.refs[op.Unit()] = s
	return s, nil
}

// referenceBody is what /v1/evaluate must answer for op: runjson of an
// in-process estimate with the daemon's configuration.
func referenceBody(s *gpumech.Session, op Op) ([]byte, error) {
	pol, err := gpumech.ParsePolicy(op.Policy)
	if err != nil {
		return nil, err
	}
	lvl, err := gpumech.ParseLevel("full")
	if err != nil {
		return nil, err
	}
	est, err := s.EstimateWith(configFor(op.Cfg), pol, lvl, gpumech.Clustering)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = runjson.Encode(&buf, runjson.Result(s, pol, lvl, est, nil))
	return buf.Bytes(), err
}

func (w *serveWL) close() {
	w.daemon.close()
	w.daemon = nil
	if w.store != "" {
		os.RemoveAll(w.store)
		w.store = ""
	}
}

// send runs the plan's requests against d, keeping every body serve-cold
// replays and every body either workload checks.
func (w *serveWL) send(d *daemon, tc *tracing, keep [][]byte) func(i int, op Op) opResult {
	return func(i int, op Op) opResult {
		sp := tc.span("op")
		body, err := d.post(op)
		sp.End()
		if err != nil {
			return opResult{err: err}
		}
		if w.cold || w.checked(i, op) {
			keep[i] = body
		}
		return opResult{points: 1}
	}
}

func (w *serveWL) measure(tc *tracing) (*phase, error) {
	ops := w.p.Ops()
	w.bodies = make([][]byte, len(ops))
	if !w.cold {
		return timedPhase(w.p, w.send(w.daemon, tc, w.bodies)), nil
	}
	// The profile store is filled first, untimed. Then each pass sends
	// its cold requests to a fresh storeless daemon, to which every
	// request is a never-seen (kernel, blocks) pair; a pass holds more
	// pairs than the daemon's session cache, so the cache fills and
	// evicts. A new daemon over the filled store then replays the pass's
	// restarted requests, answering from the store. Interleaving the two
	// phases spreads both over the whole run.
	if err := w.persist(tc); err != nil {
		return nil, err
	}
	ph := &phase{restartOps: true}
	again := make([][]byte, len(ops))
	live := startLiveSampler()
	base := 0
	for p, pass := range w.p.Passes {
		if p > 0 {
			w.daemon.close()
			w.daemon = newDaemon("", tc)
		}
		cold := w.send(w.daemon, tc, w.bodies)
		elapsed := stopwatch()
		rs := closedLoop(w.p.Clients, len(pass), func(i int) opResult { return cold(base+i, pass[i]) })
		ph.wall += elapsed()
		ph.ops = append(ph.ops, rs...)

		var idx []int // plan indexes of the pass's restarted requests
		for i, op := range pass {
			if restarted(op) {
				idx = append(idx, base+i)
			}
		}
		// A restarted daemon is a new process: collect the cold daemon's
		// sessions before it starts, as the process exit would have.
		w.daemon.close()
		runtime.GC()
		w.daemon = newDaemon(w.store, tc)
		warm := w.send(w.daemon, tc, again)
		rs = closedLoop(w.p.Clients, len(idx), func(j int) opResult { return warm(idx[j], ops[idx[j]]) })
		for j, i := range idx {
			if rs[j].err == nil && !bytes.Equal(again[i], w.bodies[i]) {
				rs[j].err = fmt.Errorf("restart body for %s differs from the cold body", ops[i].Unit())
			}
		}
		ph.restart = append(ph.restart, rs...)
		base += len(pass)
	}
	ph.peakLive = live.Stop()
	return ph, nil
}

// persist fills the profile store with one entry per restarted unit of
// the plan, written by store-backed in-process sessions exactly as a
// store-backed daemon writes them. It is untimed: every put syncs its
// file, and on a shared disk that wait swamps the cold path and swings by
// an order of magnitude from run to run.
func (w *serveWL) persist(tc *tracing) error {
	seen := map[string]bool{}
	var units []Op
	for _, op := range w.p.Ops() {
		if restarted(op) && !seen[op.Unit()] {
			seen[op.Unit()] = true
			units = append(units, op)
		}
	}
	return parallelDo(2, len(units), func(i int) error {
		op := units[i]
		s, err := gpumech.NewSession(op.Kernel, gpumech.WithBlocks(op.Blocks),
			gpumech.WithProfileStore(w.store), gpumech.WithObserver(tc.observer()))
		if err != nil {
			return err
		}
		pol, err := gpumech.ParsePolicy(op.Policy)
		if err != nil {
			return err
		}
		_, err = s.Estimate(configFor(op.Cfg), pol)
		return err
	})
}

// freshStore replaces the daemon with a storeless one and the profile
// store with a new, empty directory.
func (w *serveWL) freshStore(tc *tracing) error {
	w.close()
	store, err := os.MkdirTemp(w.dir, "store-")
	if err != nil {
		return err
	}
	w.store = store
	w.daemon = newDaemon("", tc)
	return nil
}

// finish compares the checked bodies with their references, samples
// serve-warm's restart (new daemons without a store), and runs the
// oracle sample.
func (w *serveWL) finish(ph *phase) error {
	ops := w.p.Ops()
	if !w.cold {
		w.refs = map[string]*gpumech.Session{}
	}
	for i, op := range ops {
		if ph.ops[i].err != nil || !w.checked(i, op) {
			continue
		}
		want := w.refBody[i]
		if !w.cold {
			s, err := w.session(op)
			if err != nil {
				return err
			}
			if want, err = referenceBody(s, op); err != nil {
				return err
			}
		}
		if !bytes.Equal(w.bodies[i], want) {
			ph.ops[i].err = fmt.Errorf("%s: body differs from the in-process estimate:\n%s\nwant:\n%s", op.Unit(), w.bodies[i], want)
		}
	}
	if !w.cold {
		if err := w.warmRestart(ph); err != nil {
			return err
		}
	}
	return w.oracleSample(ph)
}

// warmRestarts is how many times serve-warm restarts its daemon.
const warmRestarts = 6

// warmRestart restarts the storeless daemon warmRestarts times. Each time
// the clients send one round, every mix kernel once, and the time to
// answer the whole round is one restart sample: each request rebuilds its
// kernel's session.
func (w *serveWL) warmRestart(ph *phase) error {
	kernels := w.p.Kernels()
	for r := 0; r < warmRestarts; r++ {
		d := newDaemon("", nil)
		ops := make([]Op, len(kernels))
		bodies := make([][]byte, len(kernels))
		for i, k := range kernels {
			ops[i] = Op{Kernel: k, Cfg: baseline, Policy: "rr"}
		}
		elapsed := stopwatch()
		rs := closedLoop(w.p.Clients, len(ops), func(i int) opResult {
			body, err := d.post(ops[i])
			bodies[i] = body
			return opResult{err: err}
		})
		round := opResult{lat: elapsed(), points: len(ops)}
		d.close()
		for i, op := range ops {
			err := rs[i].err
			if err == nil {
				s, serr := w.session(op)
				if serr != nil {
					return serr
				}
				want, serr := referenceBody(s, op)
				if serr != nil {
					return serr
				}
				if !bytes.Equal(bodies[i], want) {
					err = fmt.Errorf("restart %s: body differs from the in-process estimate", op.Unit())
				}
			}
			if err != nil {
				round.err = err
				break
			}
		}
		ph.restart = append(ph.restart, round)
	}
	ph.restartOps = true
	return nil
}

// oracleSample runs the oracle on the reference units at the baseline
// and the held-back corner under both policies: every mix kernel at its
// default grid on serve-warm, and the checked small grids on serve-cold.
func (w *serveWL) oracleSample(ph *phase) error {
	type sample struct {
		op   Op
		held bool
	}
	var samples []sample
	for _, k := range w.p.Kernels() {
		grids := []int{0}
		if w.cold {
			bs := coldBlocks(k)
			grids = []int{bs[0], bs[len(bs)-1]}
		}
		for _, b := range grids {
			for _, pol := range policies {
				samples = append(samples,
					sample{Op{Kernel: k, Blocks: b, Cfg: baseline, Policy: pol}, false},
					sample{Op{Kernel: k, Blocks: b, Cfg: heldBack, Policy: pol}, true})
			}
		}
	}
	for _, s := range samples {
		if _, err := w.session(s.op); err != nil {
			return err
		}
	}
	errs := make([]float64, len(samples))
	err := parallelDo(2, len(samples), func(i int) error {
		op := samples[i].op
		s := w.refs[op.Unit()]
		pol, err := gpumech.ParsePolicy(op.Policy)
		if err != nil {
			return err
		}
		est, err := s.Estimate(configFor(op.Cfg), pol)
		if err != nil {
			return err
		}
		orc, err := s.Oracle(configFor(op.Cfg), pol)
		if err != nil {
			return err
		}
		errs[i] = gpumech.RelativeError(est.CPI, orc.CPI)
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
