package main

import (
	"fmt"
	"os"
	"path/filepath"

	"gpumech/internal/cache"
	"gpumech/internal/check"
	"gpumech/internal/check/perf"
	"gpumech/internal/config"
	"gpumech/internal/core/cluster"
	"gpumech/internal/core/interval"
	"gpumech/internal/core/model"
	"gpumech/internal/gen"
	"gpumech/internal/kernels"
	"gpumech/internal/store"
	"gpumech/internal/timing"
	"gpumech/internal/trace"
)

// replayPath is the way a workload really reaches each layer.
type replayPath struct {
	columnar  bool // emulate straight into columns (sweep's cache fill, validate)
	viaFile   bool // encode to a trace file and stream it back (sweep)
	workers   int  // interval-profiling workers on this path
	configs   []tuple
	oracle    bool // timing.Simulate at the baseline per policy (validate)
	store     bool // Put and Get one entry per restarted unit (serve-cold)
	preflight bool // dse's static pre-flight per kernel (sweep)
}

// replayLayers names the layers a replay times, in call order.
var replayLayers = []string{"emu", "encode", "decode", "preflight", "cache", "interval", "cluster", "model", "timing", "put", "get"}

// replayed holds, per layer, the seconds one replay of every distinct
// unit took, one value per repetition, plus the work those seconds did.
type replayed struct {
	secs   map[string][]float64
	insts  int64          // emulated warp-instructions per repetition
	cycles int64          // oracle-simulated cycles per repetition
	calls  int            // model.RunWithRepresentative calls per repetition
	warps  map[string]int // warps per unit
}

// replayUnits replays every distinct unit of the plan through the layers'
// public functions, reps times, each call inside a benchmark span.
func replayUnits(p *Plan, path replayPath, dir string, reps int, tc *tracing) (*replayed, error) {
	var units []Op
	seen := map[string]bool{}
	for _, op := range p.Ops() {
		if !seen[op.Unit()] {
			seen[op.Unit()] = true
			units = append(units, op)
		}
	}
	// A path whose calls are single-threaded replays on two goroutines,
	// one per CPU; the others replay one unit at a time.
	clients := 1
	if path.workers == 1 {
		clients = 2
	}
	rp := &replayed{secs: map[string][]float64{}, warps: map[string]int{}}
	for r := 0; r < reps; r++ {
		rdir, err := os.MkdirTemp(dir, "replay-")
		if err != nil {
			return nil, err
		}
		parts := make([]*replayed, len(units))
		err = parallelDo(clients, len(units), func(i int) error {
			part := &replayed{secs: map[string][]float64{}, warps: map[string]int{}}
			parts[i] = part
			udir := filepath.Join(rdir, fmt.Sprint(i))
			if err := replayUnit(units[i], path, udir, tc, part); err != nil {
				return fmt.Errorf("replay %s: %w", units[i].Unit(), err)
			}
			return nil
		})
		os.RemoveAll(rdir)
		if err != nil {
			return nil, err
		}
		totals := map[string]float64{}
		rp.insts, rp.cycles, rp.calls = 0, 0, 0
		for i, part := range parts {
			for _, l := range replayLayers {
				if s, ok := part.secs[l]; ok {
					totals[l] += s[0]
				}
			}
			rp.insts += part.insts
			rp.cycles += part.cycles
			rp.calls += part.calls
			rp.warps[units[i].Unit()] = part.warps[units[i].Unit()]
		}
		for _, l := range replayLayers {
			if s, ok := totals[l]; ok {
				rp.secs[l] = append(rp.secs[l], s)
			}
		}
	}
	return rp, nil
}

// replayUnit replays one unit into rp, one second count per layer.
func replayUnit(u Op, path replayPath, dir string, tc *tracing, rp *replayed) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	totals := map[string]float64{}
	defer func() {
		for _, l := range replayLayers {
			if s, ok := totals[l]; ok {
				rp.secs[l] = []float64{s}
			}
		}
	}()
	root := tc.span("replay")
	root.SetStr("unit", u.Unit())
	defer root.End()
	step := func(layer string, fn func() error) error {
		sp := root.Child("replay." + layer)
		elapsed := stopwatch()
		err := fn()
		totals[layer] += elapsed().Seconds()
		sp.End()
		return err
	}
	cfg := config.Baseline()
	line := cfg.L1LineBytes

	var tr *trace.Kernel
	blocks := u.Blocks
	var info *kernels.Info
	if u.GenSeed == 0 {
		var err error
		if info, err = kernels.Get(u.Kernel); err != nil {
			return err
		}
		if blocks == 0 {
			blocks = kernels.DefaultBlocks(info.WarpsPerBlock)
		}
	}
	err := step("emu", func() error {
		var err error
		switch {
		case u.GenSeed != 0:
			var gk *gen.Kernel
			if gk, err = gen.Generate(u.GenSeed, 0); err == nil {
				tr, err = gk.Trace(line)
			}
		case path.columnar:
			tr, err = info.TraceColumnar(kernels.Scale{Blocks: blocks, Seed: 1}, line)
		default:
			tr, err = info.Trace(kernels.Scale{Blocks: blocks, Seed: 1}, line)
		}
		return err
	})
	if err != nil {
		return err
	}
	rp.insts += tr.TotalInsts()
	rp.warps[u.Unit()] = len(tr.Warps)

	if path.viaFile {
		file := filepath.Join(dir, "unit.trace")
		if err := step("encode", func() error { return tr.Save(file) }); err != nil {
			return err
		}
		if err := step("decode", func() error {
			var err error
			tr, err = trace.LoadStream(file)
			return err
		}); err != nil {
			return err
		}
	}
	if path.preflight {
		if err := step("preflight", func() error { return preflight(info) }); err != nil {
			return err
		}
	}

	var prof *cache.Profile
	if err := step("cache", func() error {
		var err error
		prof, err = cache.Simulate(tr, cfg.ProfileConfig())
		return err
	}); err != nil {
		return err
	}
	in := model.Inputs{Kernel: tr, Cfg: cfg, Profile: prof, Workers: path.workers}
	var tbl *interval.PCTable
	var profiles []*interval.Profile
	if err := step("interval", func() error {
		var err error
		tbl, profiles, err = model.Structural(in)
		return err
	}); err != nil {
		return err
	}
	var rep int
	if err := step("cluster", func() error {
		var err error
		rep, err = model.SelectRepresentative(profiles, cluster.Clustering, nil)
		return err
	}); err != nil {
		return err
	}
	if err := step("model", func() error {
		for _, t := range path.configs {
			for _, pol := range config.Policies() {
				c := configFor(t)
				if _, err := model.RunWithRepresentative(model.Inputs{
					Cfg: c, Profile: prof, Policy: pol, Level: model.MTMSHRBand, Workers: path.workers,
				}, tbl, profiles, rep); err != nil {
					return err
				}
				rp.calls++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if path.oracle {
		for _, pol := range config.Policies() {
			if err := step("timing", func() error {
				res, err := timing.Simulate(tr, cfg, pol)
				if err == nil {
					rp.cycles += res.Cycles
				}
				return err
			}); err != nil {
				return err
			}
		}
	}
	if path.store && restarted(u) {
		st, err := store.Open(filepath.Join(dir, "store"), nil)
		if err != nil {
			return err
		}
		key := store.KeyFor(u.Kernel, blocks, 1, line, cfg)
		e := &store.Entry{Warps: len(tr.Warps), TotalInsts: tr.TotalInsts(),
			Profile: prof, Table: tbl, WarpProfiles: profiles, Rep: rep}
		if err := step("put", func() error { return st.Put(key, e) }); err != nil {
			return err
		}
		if err := step("get", func() error {
			if _, ok := st.Get(key); !ok {
				return fmt.Errorf("store entry %s missing after put", key.Hash())
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// preflight replays dse's static pre-flight for one kernel: the verifier
// at two blocks and the performance advisor at the default grid.
func preflight(info *kernels.Info) error {
	fs, err := kernels.VerifyAll([]string{info.Name}, kernels.Scale{Blocks: 2})
	if err != nil {
		return err
	}
	if err := fs.Err(); err != nil {
		return err
	}
	l, err := info.Build(kernels.Scale{Blocks: kernels.DefaultBlocks(info.WarpsPerBlock)})
	if err != nil {
		return err
	}
	_, err = perf.Advise(l.Prog, perf.Options{Launch: check.LaunchInfo{
		Blocks: l.Blocks, ThreadsPerBlock: l.ThreadsPerBlock, SharedBytes: l.SharedBytes,
	}})
	return err
}
