package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// nClients is the closed-loop client count of every workload: two callers,
// each blocked on its call, on this two-core class of host.
const nClients = 2

// workload is one traffic mix against one freshly set-up system.
type workload interface {
	// params describes the workload's fixed sizes for the host block.
	params() string
	// setup formats the volumes, starts any servers, populates the file
	// set and attaches the clients: everything up to the first timed op.
	setup(seed int64) error
	// run drives client ci in a closed loop until stop reports true.
	run(ci int, rec *recorder, stop func() bool) error
	// snap reads every counter the system's layers export.
	snap() layerSnap
	// sample reads the point-in-time levels sampled during a traced window.
	sample() map[string]float64
	// setTracing switches the volumes between exact (period 1) and default
	// per-op sampling.
	setTracing(on bool)
	// check runs the post-run output checks and reports space_amp.
	check(res *result) error
	// close tears the system down.
	close()
}

// config is one invocation of the benchmark.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupReps int    // set-ups per run; setup_s is their median
	traceOut  string // Chrome trace file for the traced run ("" = none)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "local-mail":
		return newLocalMail(), nil
	case "net-read":
		return newNetRead(), nil
	case "rep-write":
		return newRepWrite(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want local-mail, net-read or rep-write)", name)
}

// clientRand is client ci's private generator for a run seeded with seed.
func clientRand(seed int64, ci int) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed)*31 + uint64(ci) + 1))))
}

// measured is one window's client tallies.
type measured struct {
	recs    []*recorder
	elapsed time.Duration // until the last client finished its last op
	cpu     time.Duration // process CPU time, every goroutine included
}

// window drives every client for d.
func window(w workload, d time.Duration, traced bool) (measured, error) {
	m := measured{recs: make([]*recorder, nClients)}
	errs := make([]error, nClients)
	cpu0 := cpuTime()
	start := time.Now()
	for i := range m.recs {
		m.recs[i] = newRecorder(i, start, traced)
	}
	deadline := start.Add(d)
	stop := func() bool { return !time.Now().Before(deadline) }
	var wg sync.WaitGroup
	for i := range m.recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.run(i, m.recs[i], stop)
		}(i)
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	m.cpu = cpuTime() - cpu0
	for i, err := range errs {
		if err != nil {
			return m, fmt.Errorf("client %d: %w", i, err)
		}
	}
	return m, nil
}

// bench sets the workload up cfg.setupReps times, keeps the last system,
// warms it, measures it, checks its outputs and reports every metric.
func bench(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg, w)
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if i > 0 {
			w.close()
			runtime.GC()
		}
		t := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()
	res.add(groupE2E, "setup_s", median(setups), "s", uint64(len(setups)))

	d := time.Duration(cfg.seconds * float64(time.Second))
	warm, err := window(w, min(d/10, time.Second), false)
	if err != nil {
		return nil, err
	}
	res.absorb(warm.recs)
	if !cfg.trace {
		m, err := window(w, d, false)
		if err != nil {
			return nil, err
		}
		res.absorb(m.recs)
		res.endToEnd(m, d)
	} else {
		// The traced half follows an untraced half of equal length on the
		// same system; the ratio of their throughputs is the tracing cost.
		plain, err := window(w, d/2, false)
		if err != nil {
			return nil, err
		}
		res.absorb(plain.recs)
		w.setTracing(true)
		before := w.snap()
		stopSampler := startSampler(w)
		traced, err := window(w, d/2, true)
		levels := stopSampler()
		after := w.snap()
		w.setTracing(false)
		if err != nil {
			return nil, err
		}
		res.absorb(traced.recs)
		res.endToEnd(traced, d/2)
		plainRate, tracedRate := plain.okPerSec(), traced.okPerSec()
		res.add(groupLayer, "trace_overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%", 2)
		res.layers(before, after, levels, traced.recs)
		if cfg.traceOut != "" {
			if err := writeSpans(cfg.traceOut, traced.recs); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			res.note("spans of the first %d operations per client written to %s", keptOps, cfg.traceOut)
		}
	}

	// Resident memory with every volume and server still live.
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.add(groupE2E, "mem_mib", float64(ms.Sys-ms.HeapReleased)/(1<<20), "MiB", 1)

	if err := w.check(res); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// ok counts the ops that did not fail.
func (m measured) ok() uint64 {
	var n uint64
	for _, r := range m.recs {
		n += r.ops - r.failed
	}
	return n
}

func (m measured) okPerSec() float64 { return float64(m.ok()) / m.elapsed.Seconds() }

// levelStats is the mean and maximum of one sampled level.
type levelStats struct {
	sum, max float64
	n        uint64
}

// startSampler reads the workload's levels every 5ms until the returned
// function is called; that function waits for the sampler to exit.
func startSampler(w workload) func() map[string]levelStats {
	out := make(map[string]levelStats)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for k, v := range w.sample() {
					s := out[k]
					s.sum += v
					s.max = max(s.max, v)
					s.n++
					out[k] = s
				}
			}
		}
	}()
	return func() map[string]levelStats {
		close(done)
		<-exited
		return out
	}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted ns samples, in µs, by linear
// interpolation between closest ranks.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1]) / 1e3
	}
	frac := pos - float64(i)
	return (float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac) / 1e3
}

// cpuTime is the CPU time the process has used, user and system, in every
// goroutine: clients, servers and replicas alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
