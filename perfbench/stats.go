package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between the closest ranks (the definition of numpy's default and of
// Python's statistics.quantiles with method="inclusive").
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// beyond counts the samples strictly above the q-quantile's rank, which
// is what "at least ten samples beyond the tail percentile" is checked
// against.
func beyond(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies keeps every per-operation latency sample, marked into the
// passes it was taken in; quantiles are computed from the exact
// samples, never from a bucketed histogram.
type latencies struct {
	ns    []float64
	marks []int // end index of each completed pass
}

func newLatencies(capacity int) *latencies {
	return &latencies{ns: make([]float64, 0, capacity)}
}

func (l *latencies) add(d time.Duration) { l.ns = append(l.ns, float64(d)) }

// endPass marks the samples so far as one pass.
func (l *latencies) endPass() { l.marks = append(l.marks, len(l.ns)) }

// summary returns p50 and the tail quantile in milliseconds, with the
// sample count and the number of samples beyond the tail. p50 is the
// median over passes of each pass's exact median, so a burst of
// contention on the host moves a few passes, not the result; the tail
// needs every sample and is taken over all of them.
func (l *latencies) summary(tailQ float64) (p50ms, tailms float64, n, tailBeyond int) {
	var p50s []float64
	start := 0
	for _, end := range l.marks {
		pass := append([]float64(nil), l.ns[start:end]...)
		sort.Float64s(pass)
		p50s = append(p50s, quantile(pass, 0.5))
		start = end
	}
	sort.Float64s(l.ns)
	n = len(l.ns)
	return median(p50s) / 1e6, quantile(l.ns, tailQ) / 1e6, n, beyond(n, tailQ)
}

// memSample is the subset of runtime.MemStats the benchmark reports.
type memSample struct {
	totalAlloc, mallocs, numGC, pauseNs, heapAlloc uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{m.TotalAlloc, m.Mallocs, uint64(m.NumGC), m.PauseTotalNs, m.HeapAlloc}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// span is one traced call into a layer's public function.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Doc    int    `json:"doc"`    // document or request the span served
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// tracer records spans and boundary counts in memory; they are written
// out once, when the run ends, so recording costs no I/O.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), counts: map[string]int64{}}
}

// begin opens a span and returns its ID (1-based, so 0 means no parent).
func (t *tracer) begin(name string, parent, doc int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Doc: doc,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

func (t *tracer) count(name string, n int64) { t.counts[name] += n }

// rungMedians returns, per document, the median duration of the spans
// called name (one span per repetition of a ladder rung).
func (t *tracer) rungMedians(name string) map[int]float64 {
	per := map[int][]float64{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			per[s.Doc] = append(per[s.Doc], s.dur())
		}
	}
	out := make(map[int]float64, len(per))
	for d, xs := range per {
		out[d] = median(xs)
	}
	return out
}

// selfTime is the difference between two adjacent rungs on the same
// documents: the outer rung's time minus the inner rung's, summed over
// the documents both rungs ran on. n is that number of documents.
func selfTime(outer, inner map[int]float64) (total float64, n int) {
	for d, o := range outer {
		if in, ok := inner[d]; ok {
			total += o - in
			n++
		}
	}
	return total, n
}

// sumOver adds up m's values.
func sumOver(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// write emits the spans and counts as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return enc.Encode(map[string]any{"counts": t.counts})
}

// selfCheck verifies the benchmark's own arithmetic against hand-worked
// answers; a run that fails it reports nothing.
func selfCheck() error {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			return fmt.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := beyond(1000, 0.99); got != 10 {
		return fmt.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		return fmt.Errorf("median = %v, want 3", got)
	}
	l := newLatencies(8)
	for _, pass := range [][]float64{{1, 2, 3}, {10, 20, 30}, {4, 5, 6}} {
		for _, ms := range pass {
			l.add(time.Duration(ms * 1e6))
		}
		l.endPass()
	}
	if p50, tail, n, b := l.summary(0.5); p50 != 5 || tail != 5 || n != 9 || b != 4 {
		return fmt.Errorf("summary = %v %v %d %d, want pass-median 5, overall p50 5, 9 samples, 4 beyond", p50, tail, n, b)
	}
	tr := &tracer{t0: time.Now(), counts: map[string]int64{}}
	tr.spans = []span{
		{Name: "outer", Doc: 1, Start: 0, End: 100}, {Name: "outer", Doc: 1, Start: 0, End: 300},
		{Name: "outer", Doc: 1, Start: 0, End: 200}, {Name: "inner", Doc: 1, Start: 0, End: 60},
		{Name: "outer", Doc: 2, Start: 0, End: 50}, {Name: "inner", Doc: 2, Start: 0, End: 20},
		{Name: "outer", Doc: 3, Start: 0, End: 999}, // no inner rung: not counted
	}
	if tot, n := selfTime(tr.rungMedians("outer"), tr.rungMedians("inner")); tot != (200-60)+(50-20) || n != 2 {
		return fmt.Errorf("selfTime = %v over %d docs, want 170 over 2", tot, n)
	}
	return nil
}
