package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is the outcome of one op.
type opResult struct {
	lat    time.Duration
	points int   // sweep points, requests or validated points the op produced
	err    error // the op failed or its output failed a check
}

// closedLoop issues ops 0..n-1 in order to the given number of client
// goroutines. A client takes its next op only once its previous one has
// returned, as the real callers do. It returns when every op is done.
func closedLoop(clients, n int, do func(i int) opResult) []opResult {
	res := make([]opResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				elapsed := stopwatch()
				r := do(i)
				r.lat = elapsed()
				res[i] = r
			}
		}()
	}
	wg.Wait()
	return res
}

// liveSampler records the highest /gc/heap/live:bytes — the heap the last
// GC cycle found reachable — while it runs. The value only changes at GC
// ends; sampling every millisecond sees every cycle but the rare two that
// end within one tick.
type liveSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startLiveSampler() *liveSampler {
	l := &liveSampler{stop: make(chan struct{}), done: make(chan struct{})}
	l.peak = readMetric("/gc/heap/live:bytes")
	go func() {
		defer close(l.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				if v := readMetric("/gc/heap/live:bytes"); v > l.peak {
					l.peak = v
				}
			}
		}
	}()
	return l
}

// Stop ends sampling and returns the peak in MiB.
func (l *liveSampler) Stop() float64 {
	close(l.stop)
	<-l.done
	if v := readMetric("/gc/heap/live:bytes"); v > l.peak {
		l.peak = v
	}
	return float64(l.peak) / (1 << 20)
}

// readMetric reads one uint64 or float64 runtime metric as a uint64
// (float metrics are returned in nanounits).
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return s[0].Value.Uint64()
	case metrics.KindFloat64:
		return uint64(s[0].Value.Float64() * 1e9)
	}
	return 0
}

// runtimeStats is a runtime/metrics snapshot for allocation and GC share.
type runtimeStats struct {
	allocBytes uint64
	gcCPU      uint64 // nanoseconds
	totalCPU   uint64 // nanoseconds
	idleCPU    uint64 // nanoseconds
}

func readRuntime() runtimeStats {
	return runtimeStats{
		allocBytes: readMetric("/gc/heap/allocs:bytes"),
		gcCPU:      readMetric("/cpu/classes/gc/total:cpu-seconds"),
		totalCPU:   readMetric("/cpu/classes/total:cpu-seconds"),
		idleCPU:    readMetric("/cpu/classes/idle:cpu-seconds"),
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// millis converts op latencies to milliseconds.
func millis(rs []opResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.lat) / 1e6
	}
	return out
}

// stopwatch starts a host-time measurement and returns its reading. It is
// the benchmark's only clock: host time is what the benchmark reports, and
// no reading flows back into the program.
func stopwatch() func() time.Duration {
	start := time.Now()                                      //det:ok host time is the benchmark's output
	return func() time.Duration { return time.Since(start) } //det:ok host time is the benchmark's output
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func() error) (float64, error) {
	elapsed := stopwatch()
	err := fn()
	return elapsed().Seconds(), err
}

// parallelDo runs fn(0..n-1) on the given number of goroutines and
// returns the first error. It is for untimed work such as oracle samples.
func parallelDo(workers, n int, fn func(i int) error) error {
	rs := closedLoop(workers, n, func(i int) opResult { return opResult{err: fn(i)} })
	for _, r := range rs {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}
