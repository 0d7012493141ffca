package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/validator"
)

// op is one closed-loop step: a document through one entry point.
type op struct {
	d  *doc
	ep entryPoint
}

// passOps lists one pass over the corpus. Ingest sends each document to
// its dealt entry point; bulk sends each document through every bulk
// entry point, so a pass has nine operations of nine kinds (an odd
// number keeps the median inside one kind rather than between two).
func passOps(workload string, c *corpus) []op {
	var ops []op
	for _, d := range c.docs {
		if workload == "ingest" {
			ops = append(ops, op{d, ingestEntries[d.entry]})
			continue
		}
		for _, ep := range bulkEntries {
			ops = append(ops, op{d, ep})
		}
	}
	return ops
}

// tailQuantiles is the tail percentile each workload reports, from the
// ladder p90, p99, p99.9: the highest that keeps at least ten samples
// beyond it in a 25 s run (bulk ~200 samples, serve ~4000). Ingest
// (~25000 samples) would allow p99.9, but its spread across seeds
// reached 57% on a two-core host, wider than any regression bound, so
// ingest reports p99.
var tailQuantiles = map[string]float64{"ingest": 0.99, "bulk": 0.9, "serve": 0.99}

// setupReps is how many times a run sets up from scratch; setup_s is
// the median.
var setupReps = map[string]int{"ingest": 5, "bulk": 3, "serve": 5}

// counter tallies attempted and failed operations and keeps the first
// few failure reasons for the report.
type counter struct {
	attempted, failed, docs int64
	reasons                 []string
}

func (c *counter) fail(err error) { c.failN(1, err) }

// failN counts n failed documents that share one cause.
func (c *counter) failN(n int64, err error) {
	c.failed += n
	if len(c.reasons) < 10 {
		c.reasons = append(c.reasons, err.Error())
	}
}

// add folds o's tallies into c.
func (c *counter) add(o *counter) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.docs += o.docs
	for _, r := range o.reasons {
		if len(c.reasons) < 10 {
			c.reasons = append(c.reasons, r)
		}
	}
}

// runOp runs one operation and checks its verdict.
func runOp(env *libEnv, o op, cnt *counter) {
	cnt.attempted++
	cnt.docs++
	res, err := o.ep.run(env.of(o.d), o.d.src)
	if err == nil {
		err = checkVerdict(o.d, res)
	}
	if err != nil {
		cnt.fail(fmt.Errorf("%s: %w", o.ep.name, err))
	}
}

// libSetup is the library workloads' set-up: parse both schemas, build
// validators and binders, and run one warm-up pass that sends each
// document once, through its first operation. It is timed as a
// whole, several times, and the last environment is kept.
func libSetup(ops []op, cnt *counter) (*libEnv, time.Duration, error) {
	start := time.Now()
	env, err := newLibEnv()
	if err != nil {
		return nil, 0, err
	}
	seen := map[*doc]bool{}
	for _, o := range ops {
		if !seen[o.d] {
			seen[o.d] = true
			runOp(env, o, cnt)
		}
	}
	return env, time.Since(start), nil
}

// crossCheck sends every document through every entry point that
// accepts it and requires the same first violation from all of them.
func crossCheck(env *libEnv, c *corpus, entries []entryPoint, cnt *counter) {
	for _, d := range c.docs {
		var ref *validator.Result
		var refName string
		for _, ep := range entries {
			if ep.poOnly && d.schema != "po" {
				continue
			}
			cnt.attempted++
			res, err := ep.run(env.of(d), d.src)
			if err == nil {
				err = checkVerdict(d, res)
			}
			if err == nil && ref != nil && !sameVerdict(ref, res) {
				err = fmt.Errorf("doc %d: %s and %s disagree", d.id, refName, ep.name)
			}
			if err != nil {
				cnt.fail(fmt.Errorf("cross-check %s: %w", ep.name, err))
				continue
			}
			if ref == nil {
				ref, refName = res, ep.name
			}
		}
	}
}

func sameVerdict(a, b *validator.Result) bool {
	if a.OK() || b.OK() {
		return a.OK() == b.OK()
	}
	return a.Violations[0] == b.Violations[0]
}

// runLibrary runs the ingest or bulk workload.
func runLibrary(o options, c *corpus, stamp map[string]any) (*result, error) {
	ops := passOps(o.workload, c)
	var cnt counter
	lat := newLatencies(1 << 20)
	var env *libEnv
	var setups []float64
	for i := 0; i < setupReps[o.workload]; i++ {
		env = nil
		runtime.GC()
		var d time.Duration
		var err error
		if env, d, err = libSetup(ops, &cnt); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	entries := ingestEntries
	if o.workload == "bulk" {
		entries = bulkEntries
	}
	crossCheck(env, c, entries, &cnt)

	if o.trace {
		return traceLibrary(o, c, env, ops, &cnt, stamp)
	}

	runtime.GC()
	m0 := readMem()
	start := time.Now()
	var measured counter
	var passTimes []float64
	for time.Since(start).Seconds() < o.seconds {
		t0 := time.Now()
		for _, op := range ops {
			t := time.Now()
			runOp(env, op, &measured)
			lat.add(time.Since(t))
		}
		lat.endPass()
		passTimes = append(passTimes, time.Since(t0).Seconds())
	}
	m1 := readMem()
	tailQ := tailQuantiles[o.workload]
	p50, tail, n, nBeyond := lat.summary(tailQ)
	// Live heap at the end: drop the benchmark's own corpus, op list and
	// samples first, so what stays is the program's state (schemas,
	// validators, compiled models, caches). The second collection empties
	// the sync.Pools the first only moved to their victim caches; with
	// them the figure swung by half from run to run.
	*c, ops, lat = corpus{}, nil, nil
	runtime.GC()
	runtime.GC()
	retained := readMem().heapAlloc
	runtime.KeepAlive(env)

	cnt.add(&measured)
	return endToEnd(phaseStats{setups: setups, docs: measured.docs, passTimes: passTimes,
		p50: p50, tail: tail, samples: n, tailQ: tailQ, tailBeyond: nBeyond,
		allocBytes: m1.totalAlloc - m0.totalAlloc, allocs: m1.mallocs - m0.mallocs, heap: retained}, &cnt, stamp), nil
}

// phaseStats is what a measured phase yields for the end-to-end metrics.
type phaseStats struct {
	setups             []float64 // seconds per set-up
	docs               int64     // documents given a verdict in the measured passes
	passTimes          []float64 // seconds per pass
	p50, tail          float64   // ms
	samples            int
	tailQ              float64
	tailBeyond         int
	allocBytes, allocs uint64 // during the measured passes
	heap               uint64 // live heap at the end, bytes
}

// endToEnd turns a measured phase into the eight end-to-end metrics and
// stamps the sample counts behind them.
func endToEnd(m phaseStats, cnt *counter, stamp map[string]any) *result {
	res := &result{Correct: cnt.failed == 0, Attempted: cnt.attempted, Failed: cnt.failed}
	docs := float64(m.docs)
	res.put("setup_s", "s", median(m.setups))
	// Throughput is one pass's documents over the median pass time, so
	// a burst of contention on the host moves a few passes, not the
	// result.
	res.put("docs_per_s", "1/s", docs/float64(len(m.passTimes))/median(m.passTimes))
	res.put("latency_p50_ms", "ms", m.p50)
	res.put("latency_tail_ms", "ms", m.tail)
	res.put("alloc_bytes_per_doc", "B", float64(m.allocBytes)/docs)
	res.put("allocs_per_doc", "count", float64(m.allocs)/docs)
	res.put("retained_heap_mb", "MB", float64(m.heap)/1e6)
	res.put("ok_frac", "ratio", 1-float64(cnt.failed)/float64(cnt.attempted))
	stamp["latency_samples"] = m.samples
	stamp["latency_tail_quantile"] = m.tailQ
	stamp["latency_tail_beyond"] = m.tailBeyond
	stamp["setup_s_samples"] = m.setups
	stamp["pass_s"] = m.passTimes
	reportFailures(cnt)
	return res
}

func reportFailures(cnt *counter) {
	for _, r := range cnt.reasons {
		fmt.Fprintln(os.Stderr, "FAILED:", r)
	}
}
