package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Metric groups. Counts are per-layer figures that repeat exactly for a
// given seed and op count; later changes may cite them as counts.
const (
	groupE2E   = "end-to-end"
	groupLayer = "per-layer"
	groupCount = "count"
)

// metric is one named figure with its unit and the number of samples
// behind it.
type metric struct {
	Group   string
	Name    string
	Value   float64
	Unit    string
	Samples uint64
}

// result is everything one invocation reports.
type result struct {
	Host      [][2]string
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   []metric
	Notes     []string
	Problems  []string
}

func newResult(cfg config, w workload) *result {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	return &result{Host: [][2]string{
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"goos_goarch", runtime.GOOS + "/" + runtime.GOARCH},
		{"commit", gitCommit(".")},
		{"source_sha256", sourceHash(".")},
		{"workload", cfg.workload},
		{"seed", fmt.Sprint(cfg.seed)},
		{"seconds", fmt.Sprint(cfg.seconds)},
		{"trace", trace},
		{"setup_reps", fmt.Sprint(cfg.setupReps)},
		{"clients", fmt.Sprint(nClients)},
		{"params", w.params()},
	}}
}

func (r *result) add(group, name string, v float64, unit string, samples uint64) {
	r.Metrics = append(r.Metrics, metric{group, name, v, unit, samples})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// absorb counts a window's ops and keeps its output-check failures.
func (r *result) absorb(recs []*recorder) {
	for _, rec := range recs {
		r.Attempted += rec.ops
		r.Failed += rec.failed
		r.Problems = append(r.Problems, rec.problems...)
		if extra := rec.badN - uint64(len(rec.problems)); extra > 0 {
			r.problem("client %d: %d more output-check failures", rec.client, extra)
		}
	}
}

// endToEnd reports the measured window's user-visible metrics. Rates and
// percentiles are medians over the whole slices of a window of length d;
// sample counts cover those slices.
func (r *result) endToEnd(m measured, d time.Duration) {
	recs := m.recs
	nSlices, sliceSecs := int(d/sliceLen), sliceLen.Seconds()
	if nSlices == 0 {
		nSlices, sliceSecs = 1, m.elapsed.Seconds()
	}
	var attempted, failed, expected, okOps uint64
	fails := make(map[string]uint64)
	rates := make([]float64, nSlices)
	all := make([][]uint32, nSlices)
	var byClass [numClasses][][]uint32
	for c := range byClass {
		byClass[c] = make([][]uint32, nSlices)
	}
	for _, rec := range recs {
		attempted += rec.ops
		failed += rec.failed
		expected += rec.expected
		for k, v := range rec.fails {
			fails[k] += v
		}
		for i := 0; i < nSlices && i < len(rec.slices); i++ {
			sl := &rec.slices[i]
			okOps += sl.ok
			rates[i] += float64(sl.ok) / sliceSecs
			for c := range sl.lat {
				byClass[c][i] = append(byClass[c][i], sl.lat[c]...)
				all[i] = append(all[i], sl.lat[c]...)
			}
		}
	}
	r.add(groupE2E, "ops_per_s", median(rates), "ops/s", okOps)
	r.add(groupE2E, "cpu_us_per_op", float64(m.cpu.Nanoseconds())/1e3/float64(max(m.ok(), 1)), "us", m.ok())
	r.note("ops_per_s by slice of %v: %.0f", sliceLen, rates)
	latency := func(prefix string, perSlice [][]uint32) {
		var pooled []uint32
		fewest := -1
		for _, s := range perSlice {
			slices.Sort(s)
			pooled = append(pooled, s...)
			if fewest < 0 || len(s) < fewest {
				fewest = len(s)
			}
		}
		n := uint64(len(pooled))
		if n == 0 {
			return
		}
		slices.Sort(pooled)
		// Each percentile is the median of its per-slice values when every
		// slice has at least ten samples beyond it, else taken over the
		// pooled samples; the highest percentile reported keeps ten
		// samples beyond it.
		pct := func(q float64) float64 {
			if float64(fewest)*(1-q) < 10 {
				return quantile(pooled, q)
			}
			v := make([]float64, len(perSlice))
			for i, s := range perSlice {
				v[i] = quantile(s, q)
			}
			return median(v)
		}
		r.add(groupE2E, prefix+"_p50_us", pct(0.50), "us", n)
		if n >= 1000 {
			r.add(groupE2E, prefix+"_p99_us", pct(0.99), "us", n)
		}
	}
	latency("op", all)
	for c := range byClass {
		latency(classNames[c], byClass[c])
	}
	r.add(groupE2E, "fail_share", float64(failed)/float64(max(attempted, 1)), "ratio", attempted)
	r.add(groupE2E, "expected_error_share", float64(expected)/float64(max(attempted, 1)), "ratio", attempted)
	kinds := make([]string, 0, len(fails))
	for k := range fails {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		r.add(groupLayer, "core.fail."+k, float64(fails[k]), "count", attempted)
	}
}

// write prints the human-readable report: host block, every metric with
// its unit and sample count, notes and output-check failures.
func (r *result) write(w io.Writer) {
	for _, kv := range r.Host {
		fmt.Fprintf(w, "host %-14s %s\n", kv[0], kv[1])
	}
	for _, group := range []string{groupE2E, groupLayer, groupCount} {
		title := group
		if group == groupCount {
			title = "count (repeats exactly for a given seed and op count)"
		}
		fmt.Fprintf(w, "\n[%s]\n%-32s %16s %-8s %10s\n", title, "name", "value", "unit", "samples")
		for _, m := range r.Metrics {
			if m.Group == group {
				fmt.Fprintf(w, "%-32s %16.6g %-8s %10d\n", m.Name, m.Value, m.Unit, m.Samples)
			}
		}
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range r.Notes {
			fmt.Fprintln(w, "note:", n)
		}
	}
	fmt.Fprintf(w, "\ncorrect=%v attempted=%d failed=%d\n", len(r.Problems) == 0, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}

// summary is the one-line machine-readable result: the named metrics only.
func (r *result) summary(names []string) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(names))
	for _, n := range names {
		m, ok := r.get(n)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		ms[n] = val{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a tree that is not a git checkout reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash identifies the measured program when there is no commit: a
// SHA-256 over the path and bytes of every Go source and go.mod file under
// root, skipping hidden and build directories.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write(bytes.TrimSpace(b))
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
