package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"simurgh/internal/wire"
)

// class is the latency class of a call, or of a batch by its kind.
type class uint8

const (
	clsRead class = iota
	clsWrite
	clsMeta
	numClasses
)

var classNames = [numClasses]string{"read", "write", "meta"}

// maxProblems bounds the check failures kept verbatim per client.
const maxProblems = 8

// sliceLen is the length of the slices a window is cut into. End-to-end
// figures are medians over whole slices, so a burst of interference from
// outside the benchmark moves one slice, not the result.
const sliceLen = time.Second

// slice is one client's tally of the calls that completed in one slice.
type slice struct {
	lat [numClasses][]uint32 // ns per call (local) or per Submit (batched)
	ok  uint64               // ops that succeeded or ended in an expected error
}

// recorder is one client's tally for one measured window. Only the client's
// own goroutine touches it, so nothing is locked.
type recorder struct {
	client int
	start  time.Time // window start
	slices []slice

	ops      uint64            // ops that returned, failed or not
	failed   uint64            // ops that returned an unexpected error
	expected uint64            // ops that returned an error the workload expects
	fails    map[string]uint64 // failed ops by error kind
	written  uint64            // user bytes acknowledged as written
	parts    uint64            // shard parts summed over routed batches

	problems []string // output-check failures, first maxProblems
	badN     uint64   // output-check failures, all

	trace   *spanLog // nil when the window is untraced
	opID    uint64
	opStart time.Time
}

func newRecorder(client int, start time.Time, traced bool) *recorder {
	r := &recorder{client: client, start: start, fails: make(map[string]uint64)}
	if traced {
		r.trace = &spanLog{client: client}
	}
	return r
}

// begin opens one workload operation: a root span when traced.
func (r *recorder) begin() {
	if r.trace != nil {
		r.opID++
		r.opStart = time.Now()
	}
}

// end closes the operation begun last.
func (r *recorder) end() {
	if r.trace != nil {
		r.trace.add(r.opID, spanOp, r.opStart, time.Now())
	}
}

// call records one fsapi call of class cls that ran from start to stop
// (a child span of the open operation when traced). An error is a failure
// unless errors.Is(err, allowed). It reports whether the call succeeded.
func (r *recorder) call(cls class, start, stop time.Time, err, allowed error) bool {
	sl := r.slice(stop)
	sl.lat[cls] = append(sl.lat[cls], clampNs(stop.Sub(start)))
	if r.trace != nil {
		r.trace.add(r.opID, spanCore, start, stop)
	}
	r.ops++
	switch {
	case err == nil:
		sl.ok++
		return true
	case allowed != nil && errors.Is(err, allowed):
		sl.ok++
		r.expected++
	default:
		r.failed++
		r.fails[errKind(err)]++
	}
	return false
}

// batch records one Submit of class cls that ran from start to stop. A
// transport error fails every request; otherwise each non-OK response is
// a failure (Submit does not retry overload or moved answers).
func (r *recorder) batch(cls class, start, stop time.Time, n int, resps []wire.Response, err error) {
	sl := r.slice(stop)
	sl.lat[cls] = append(sl.lat[cls], clampNs(stop.Sub(start)))
	if r.trace != nil {
		r.trace.add(r.opID, spanClient, start, stop)
	}
	r.ops += uint64(n)
	if err != nil {
		r.failed += uint64(n)
		r.fails[errKind(err)] += uint64(n)
		return
	}
	for i := range resps {
		if resps[i].Code != wire.CodeOK {
			r.failed++
			r.fails[errKind(resps[i].Err())]++
		} else {
			sl.ok++
		}
	}
}

// slice returns the tally of the slice that contains t.
func (r *recorder) slice(t time.Time) *slice {
	i := int(t.Sub(r.start) / sliceLen)
	for len(r.slices) <= i {
		r.slices = append(r.slices, slice{})
	}
	return &r.slices[i]
}

// batches counts the latency samples (calls or Submits) of every slice.
func (r *recorder) batches() uint64 {
	var n uint64
	for i := range r.slices {
		for c := range r.slices[i].lat {
			n += uint64(len(r.slices[i].lat[c]))
		}
	}
	return n
}

// problem records an output-check failure.
func (r *recorder) problem(format string, args ...any) {
	r.badN++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf("client %d: ", r.client)+fmt.Sprintf(format, args...))
	}
}

func clampNs(d time.Duration) uint32 {
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// errKind names an error for the <layer>.fail.<kind> breakdown: its text
// without the package prefix, as an identifier.
func errKind(err error) string {
	s := err.Error()
	if i := strings.Index(s, ": "); i >= 0 && i < 8 {
		s = s[i+2:]
	}
	if i := strings.Index(s, ": "); i >= 0 {
		s = s[:i]
	}
	return strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			return c
		}
		if c >= 'A' && c <= 'Z' {
			return c - 'A' + 'a'
		}
		return '_'
	}, s)
}

// spanKind names the boundary a span was recorded at.
type spanKind uint8

const (
	spanOp     spanKind = iota // one workload operation, built and checked by the benchmark
	spanCore                   // a call into core (fsapi on the mounted volume)
	spanClient                 // a Session/RoutedSession Submit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "core", "client"}

type span struct {
	id          uint64
	kind        spanKind
	start, stop time.Time
}

// keptOps is how many operations per client keep their spans for the
// written trace; every span counts towards the totals.
const keptOps = 10000

// spanLog is one client's span record: totals by kind over the whole
// window, and the spans of its first keptOps operations, held in memory
// until the run ends. Child spans share their root's ID.
type spanLog struct {
	client int
	spans  []span
	totals spanTotals
}

func (l *spanLog) add(id uint64, kind spanKind, start, stop time.Time) {
	l.totals.n[kind]++
	l.totals.ns[kind] += uint64(stop.Sub(start))
	if id <= keptOps {
		l.spans = append(l.spans, span{id: id, kind: kind, start: start, stop: stop})
	}
}

// spanTotals sums span time by kind.
type spanTotals struct {
	n  [numSpanKinds]uint64
	ns [numSpanKinds]uint64
}

func sumSpans(recs []*recorder) spanTotals {
	var t spanTotals
	for _, r := range recs {
		if r.trace == nil {
			continue
		}
		for k := range t.n {
			t.n[k] += r.trace.totals.n[k]
			t.ns[k] += r.trace.totals.ns[k]
		}
	}
	return t
}

// writeSpans writes the kept spans as a Chrome trace-event array.
func writeSpans(path string, recs []*recorder) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint64 `json:"args"`
	}
	var t0 time.Time
	for _, r := range recs {
		if r.trace != nil && len(r.trace.spans) > 0 && (t0.IsZero() || r.trace.spans[0].start.Before(t0)) {
			t0 = r.trace.spans[0].start
		}
	}
	var events []event
	for _, r := range recs {
		if r.trace == nil {
			continue
		}
		for _, s := range r.trace.spans {
			events = append(events, event{
				Name: spanNames[s.kind], Ph: "X", Pid: 1, Tid: r.client,
				Ts:   float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
				Dur:  float64(s.stop.Sub(s.start).Nanoseconds()) / 1e3,
				Args: map[string]uint64{"op": s.id},
			})
		}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
