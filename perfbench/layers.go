package main

import (
	"sort"

	"gpumech/internal/obs"
)

func (w *sweepWL) replay(dir string, reps int, tc *tracing) (*replayed, error) {
	return replayUnits(w.p, replayPath{columnar: true, viaFile: true, configs: w.p.Grid, preflight: true}, dir, reps, tc)
}

func (w *serveWL) replay(dir string, reps int, tc *tracing) (*replayed, error) {
	return replayUnits(w.p, replayPath{configs: grid(), store: w.cold}, dir, reps, tc)
}

func (w *validateWL) replay(dir string, reps int, tc *tracing) (*replayed, error) {
	return replayUnits(w.p, replayPath{columnar: true, workers: 1, configs: []tuple{baseline}, oracle: true}, dir, reps, tc)
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	plain, traced *phase       // the untraced and the traced timed phase
	rt0, rt1      runtimeStats // around the untraced phase
	delta         obs.Snapshot // the program's metrics over the traced phase
	spans         []obs.SpanRecord
	replay        *replayed
}

// deltaOf returns b minus a for counters and histogram counts and sums.
func deltaOf(a, b obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistSnapshot{}}
	for n, v := range b.Counters {
		d.Counters[n] = v - a.Counters[n]
	}
	for n, h := range b.Histograms {
		d.Histograms[n] = obs.HistSnapshot{Count: h.Count - a.Histograms[n].Count, Sum: h.Sum - a.Histograms[n].Sum}
	}
	return d
}

// layerMetrics computes every per-layer metric. A layer the workload
// does not reach reports zero.
func layerMetrics(p *Plan, in layerInputs) map[string]float64 {
	m := map[string]float64{}
	rp := in.replay
	quart := func(name string, xs []float64, scale float64) {
		m[name], m[name+".q1"], m[name+".q3"] = 0, 0, 0
		if len(xs) > 0 {
			m[name] = scale * quantile(xs, 0.5)
			m[name+".q1"] = scale * quantile(xs, 0.25)
			m[name+".q3"] = scale * quantile(xs, 0.75)
		}
	}
	rate := func(work float64, secs []float64) float64 {
		if len(secs) == 0 || work == 0 {
			return 0
		}
		return work / median(secs) / 1e6
	}
	quart("emu.trace_ms", rp.secs["emu"], 1e3)
	m["emu.minsts_per_s"] = rate(float64(rp.insts), rp.secs["emu"])
	quart("trace.decode_ms", rp.secs["decode"], 1e3)
	quart("trace.encode_ms", rp.secs["encode"], 1e3)
	quart("cache.simulate_ms", rp.secs["cache"], 1e3)
	quart("interval.profile_ms", rp.secs["interval"], 1e3)
	quart("cluster.select_ms", rp.secs["cluster"], 1e3)
	quart("model.per_config_us", rp.secs["model"], 1e6/float64(rp.calls))
	quart("timing.simulate_ms", rp.secs["timing"], 1e3)
	m["timing.msim_cycles_per_s"] = rate(float64(rp.cycles), rp.secs["timing"])
	quart("store.put_ms", rp.secs["put"], 1e3)
	quart("store.get_ms", rp.secs["get"], 1e3)
	quart("dse.preflight_ms", rp.secs["preflight"], 1e3)

	// Exact work counts from the program's counters over the traced phase.
	c := in.delta.Counters
	ops := p.Ops()
	m["trace.kernels_built"] = float64(c["trace.kernels"])
	m["cache.simulations"] = float64(c["cache.profile.memo_misses"])
	hits := float64(c["cache.profile.memo_hits"])
	m["interval.warps_profiled"] = float64(c["interval.warps_profiled"])
	m["model.estimates"] = float64(c["model.estimates"])
	m["timing.runs"] = float64(c["oracle.runs"])
	if p.Workload == "validate" {
		// accuracy.Run feeds no trace, cache-simulation, profiling or
		// oracle counter; each op traces, simulates and profiles its
		// kernel once and runs the oracle once per point.
		points := 0
		warps := 0
		for i, op := range ops {
			points += in.traced.ops[i].points
			warps += rp.warps[op.Unit()]
		}
		m["trace.kernels_built"] = float64(len(ops))
		m["cache.simulations"] = float64(len(ops))
		hits = float64(points - len(ops))
		m["interval.warps_profiled"] = float64(warps)
		m["timing.runs"] = float64(points)
	}
	m["cache.memo_hit_ratio"] = ratio(hits, hits+m["cache.simulations"])
	// One profiling pass per unit per session lifetime is all the work
	// needs, since every tuple of a unit shares its structural key.
	// Sessions live for one op on sweep and validate (each dse.Run or
	// accuracy.Run starts from nothing), for the whole run on serve-warm,
	// and for one pass on serve-cold, whose store fill profiles each
	// restarted unit once more.
	useful, distinct, fill := 0, 0, 0
	seen := map[string]bool{}
	for _, op := range ops {
		n := rp.warps[op.Unit()]
		useful += n
		if !seen[op.Unit()] {
			seen[op.Unit()] = true
			distinct += n
			if restarted(op) {
				fill += n
			}
		}
	}
	switch p.Workload {
	case "serve-warm":
		useful = distinct
	case "serve-cold":
		useful += fill
	}
	m["interval.useful_ratio"] = ratio(float64(useful), m["interval.warps_profiled"])
	m["store.hits"] = float64(c["store.hits"])
	m["store.misses"] = float64(c["store.misses"])
	m["store.puts"] = float64(c["store.puts"])
	m["store.write_bytes"] = float64(c["store.write_bytes"])
	m["serve.sessions_evicted"] = float64(c["serve.sessions.evicted"])

	// Serving stages: means per request over the traced phase.
	h := in.delta.Histograms
	stageMean := func(name string) float64 { return ratio(h[name].Sum, float64(h[name].Count)) }
	decode := stageMean("serve.stage.decode.seconds")
	session := stageMean("serve.stage.session.seconds")
	estimate := stageMean("serve.stage.estimate.seconds")
	encode := stageMean("serve.stage.encode.seconds")
	m["serve.decode_us"] = 1e6 * decode
	m["serve.session_ms"] = 1e3 * session
	m["serve.estimate_ms"] = 1e3 * estimate
	m["serve.encode_us"] = 1e6 * encode
	m["serve.http_us"] = 0
	if h["serve.stage.decode.seconds"].Count > 0 {
		reqs := in.traced.ops
		if in.traced.restartOps && p.Workload == "serve-cold" {
			reqs = append(append([]opResult(nil), reqs...), in.traced.restart...)
		}
		client := mean(millis(reqs)) / 1e3
		m["serve.http_us"] = 1e6 * (client - decode - session - estimate - encode)
	}

	// Self time per layer from the traced phase's span trees.
	st := analyze(in.spans, p.Workload)
	for _, l := range []string{"emu", "trace", "cache", "interval", "cluster", "model", "timing", "serve"} {
		m[l+".self_ms"] = 1e3 * ratio(st.self[l], float64(st.ops))
	}
	m["dse.overhead_ms"] = 1e3 * ratio(st.dseOverhead, float64(st.ops))
	m["bench.unattributed_ratio"] = ratio(st.unattributed, st.opSecs)
	m["bench.trace_overhead_ratio"] = in.traced.wall.Seconds() / in.plain.wall.Seconds()

	// Runtime, over the untraced phase.
	alloc := float64(in.rt1.allocBytes - in.rt0.allocBytes)
	m["runtime.alloc_mib_per_op"] = alloc / float64(len(in.plain.ops)) / (1 << 20)
	busy := float64(in.rt1.totalCPU-in.rt0.totalCPU) - float64(in.rt1.idleCPU-in.rt0.idleCPU)
	m["runtime.gc_cpu_share"] = ratio(float64(in.rt1.gcCPU-in.rt0.gcCPU), busy)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerOf maps a span name to the layer whose work it records, or "" for
// a span that is no layer's (its self time is unattributed).
func layerOf(name, workload string) string {
	switch name {
	case "trace":
		// Session tracing decodes the trace cache on sweep and runs the
		// emulator everywhere else.
		if workload == "sweep" {
			return "trace"
		}
		return "emu"
	case "trace-load":
		return "trace"
	case "cache-sim":
		return "cache"
	case "interval-profiling":
		return "interval"
	case "clustering":
		return "cluster"
	case "multi-warp", "contention", "cpi-stack", "estimate-baseline":
		return "model"
	case "oracle":
		return "timing"
	case "http.evaluate", "decode", "session", "encode":
		return "serve"
	case "sweep":
		return "dse"
	}
	return ""
}

// spanTotals is the self-time accounting of one traced phase.
type spanTotals struct {
	self         map[string]float64 // seconds per layer
	unattributed float64            // seconds of spans that are no layer's
	opSecs       float64            // the benchmark's op spans
	ops          int
	dseOverhead  float64 // op time outside every session span under "sweep"
}

// analyze walks the traced phase's span trees. The benchmark's "op" span
// wraps each call into the program, and the program's spans nest under it
// through the observer hooks. On the serve workloads the daemon's request
// trees are separate roots; the client time outside them is the serve
// layer's HTTP share.
func analyze(recs []obs.SpanRecord, workload string) spanTotals {
	t := spanTotals{self: map[string]float64{}}
	serving := workload == "serve-warm" || workload == "serve-cold"
	var walk func(r obs.SpanRecord)
	walk = func(r obs.SpanRecord) {
		self := r.Seconds - covered(r)
		if l := layerOf(r.Name, workload); l != "" {
			t.self[l] += self
		} else {
			t.unattributed += self
		}
		for _, c := range r.Children {
			walk(c)
		}
	}
	server := 0.0
	for _, r := range recs {
		switch {
		case r.Name == "op":
			t.opSecs += r.Seconds
			t.ops++
			if serving {
				continue
			}
			walk(r)
			for _, c := range r.Children {
				if c.Name == "sweep" {
					t.dseOverhead += r.Seconds - covered(c)
				}
			}
		case r.Name == "http.evaluate" && serving:
			server += r.Seconds
			walk(r)
		case r.Name == "trace" && serving:
			// A storeless daemon traces while a request's session stage
			// creates the session, but under the daemon's own observer,
			// so the span is a root: move its time from serve to emu.
			t.self["emu"] += r.Seconds
			t.self["serve"] -= r.Seconds
		}
	}
	if serving {
		t.self["serve"] += t.opSecs - server
	}
	return t
}

// covered returns the seconds of r's interval that its children cover.
func covered(r obs.SpanRecord) float64 {
	type iv struct{ lo, hi int64 }
	lo0 := r.StartUnixNano
	hi0 := lo0 + int64(r.Seconds*1e9)
	var ivs []iv
	for _, c := range r.Children {
		lo := c.StartUnixNano
		hi := lo + int64(c.Seconds*1e9)
		if lo < lo0 {
			lo = lo0
		}
		if hi > hi0 {
			hi = hi0
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return float64(total) / 1e9
}
