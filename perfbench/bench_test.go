package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSummaryListsMatchSpec keeps the one-line summary and BENCHMARK.json
// naming the same metrics in the same order.
func TestSummaryListsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	same := func(what string, names []string, want []struct{ Name, Unit string }) {
		if len(names) != len(want) {
			t.Fatalf("%s: summary has %d metrics, BENCHMARK.json %d", what, len(names), len(want))
		}
		for i := range names {
			if names[i] != want[i].Name {
				t.Errorf("%s[%d]: summary %q, BENCHMARK.json %q", what, i, names[i], want[i].Name)
			}
		}
	}
	same("end_to_end", summaryE2E, s.EndToEnd)
	same("per_layer", summaryLayer, s.PerLayer)
}

// TestWorkloadsReportEveryMetric runs every workload briefly, untraced and
// traced, and requires every metric BENCHMARK.json names, with its unit,
// and passing output checks.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, wl := range s.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := bench(config{workload: wl.Name, seed: 7, seconds: 1.2, trace: traced, setupReps: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d problems=%q", wl.Name, traced, res.Correct, res.Attempted, res.Problems)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			for _, m := range want {
				got, ok := res.get(m.Name)
				if !ok {
					t.Errorf("%s trace=%v: %s not reported", wl.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// drive runs client 0 of w for d.
func drive(t *testing.T, w workload, d time.Duration) *recorder {
	t.Helper()
	rec := newRecorder(0, time.Now(), false)
	deadline := time.Now().Add(d)
	if err := w.run(0, rec, func() bool { return time.Now().After(deadline) }); err != nil {
		t.Fatal(err)
	}
	return rec
}

// corruptOneByte is fillPattern with byte 100 of every content period
// flipped.
func corruptOneByte(p []byte, key, off uint64) {
	fillPattern(p, key, off)
	if off <= 100 && off+uint64(len(p)) > 100 {
		p[100-off] ^= 0x01
	}
}

func TestLocalMailChecksRejectCorruption(t *testing.T) {
	w := newLocalMail()
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.expect = corruptOneByte
	if rec := drive(t, w, 200*time.Millisecond); rec.badN == 0 {
		t.Error("reads during the run accepted a corrupted expected byte")
	}
	res := &result{}
	if err := w.check(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) == 0 {
		t.Error("the post-remount recheck accepted a corrupted expected byte")
	}
}

func TestNetReadChecksRejectCorruption(t *testing.T) {
	w := newNetRead()
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, c := range w.content {
		for off := 100; off < len(c); off += nrBlock {
			c[off] ^= 0x01
		}
	}
	if rec := drive(t, w, 200*time.Millisecond); rec.badN == 0 {
		t.Error("reads during the run accepted a corrupted expected byte")
	}
	res := &result{}
	if err := w.check(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) == 0 {
		t.Error("the post-run reread accepted a corrupted expected byte")
	}
}

func TestRepWriteCheckRejectsCorruptLedger(t *testing.T) {
	w := newRepWrite()
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	drive(t, w, 200*time.Millisecond)
	res := &result{}
	if err := w.check(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) != 0 {
		t.Fatalf("clean run failed its check: %q", res.Problems)
	}
	w.ledger[0][5]++
	res = &result{}
	if err := w.check(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Problems) != 2 { // the backup and the primary
		t.Errorf("a corrupted ledger entry gave %d problems, want 2: %q", len(res.Problems), res.Problems)
	}
}

// TestPatternIsAFunctionOfOffset: filling a range in pieces gives the same
// bytes as filling it at once, from any starting offset.
func TestPatternIsAFunctionOfOffset(t *testing.T) {
	whole := make([]byte, 200)
	fillPattern(whole, 42, 3)
	for cut := 0; cut <= len(whole); cut++ {
		parts := make([]byte, len(whole))
		fillPattern(parts[:cut], 42, 3)
		fillPattern(parts[cut:], 42, 3+uint64(cut))
		if string(parts) != string(whole) {
			t.Fatalf("split at %d differs", cut)
		}
	}
}
