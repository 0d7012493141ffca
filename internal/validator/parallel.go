package validator

// Intra-document parallel validation.
//
// A multi-MB document is dominated by the subtree walks under its
// depth-1 children, and those walks are independent except for three
// document-global concerns: the violation list (ordered), the ID map
// (first declaration wins, duplicates cite it) and the IDREF worklist
// (resolved against the whole document). Following the fragment-typing
// argument of Abiteboul et al.'s Distributed XML Design — a subtree can
// be validated against its inferred type in isolation, with only a
// bounded interface joined at the seam — ParallelValidate fans sibling
// subtrees out to a worker pool running the ordinary walk. The
// walk descends sequentially until it reaches a level with enough fan-out
// to feed the pool (ParallelMinFanout siblings — the root's depth-1
// children in a wide document, or e.g. the 30k <item> children of
// <items> in a deep purchase order), splits that level into contiguous
// chunks, and joins the three global concerns at the seams:
//
//   - violations: each subtree's violations are contiguous in document
//     order, so the join is concatenation in child order;
//   - IDs: each sub-run keeps a journaled ID table (idTable), logging
//     its ID events (insertions and local duplicates) in subtree order
//     with the violation index they map to. The join replays the
//     journals in child order against the document's table: an insertion
//     colliding with an earlier subtree's ID becomes a duplicate
//     violation spliced in at the journaled index, and local duplicate
//     messages are rewritten to cite the globally first declaration —
//     exactly what the sequential walk would have said;
//   - IDREFs: pending references concatenate in child order and resolve
//     against the joined map, preserving emission order.
//
// One sequential behavior cannot be reproduced piecewise: the walk stops
// descending once the violation cap (maxViolations) is reached, so IDs
// and violations past the cap depend on global order. When the joined
// result reaches the cap, ParallelValidate discards it and reruns the
// plain sequential walk — correctness by construction on the (rare,
// already-pathological) documents that hit the cap.
//
// The verdict is byte-identical to ValidateDocument — same violations,
// same order, same paths, same message text — enforced by the
// differential suite (TestParallelMatchesSequential) and the fuzzer
// (FuzzParallelValidate).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xsd"
)

// ParallelValidate validates like ValidateDocument, splitting the work at
// sibling-subtree boundaries across a worker pool (see the package-level
// split discussion above). workers <= 0 selects runtime.GOMAXPROCS(0);
// 1 degenerates to the sequential walk. The result is byte-identical to
// ValidateDocument's.
//
// Parallelism pays for itself on large documents with several depth-1
// children; for small documents the sequential walk is faster (xsdserved
// applies a size threshold for exactly this reason).
func (v *Validator) ParallelValidate(doc *dom.Document, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || v.opts.ElementObserver != nil {
		// Observer callbacks are ordering-sensitive instrumentation;
		// keep them on the deterministic sequential walk.
		return v.ValidateDocument(doc)
	}
	r := v.newRun()
	r.parWorkers = workers
	if res := r.document(doc); len(res.Violations) < maxViolations {
		return res
	}
	// The sequential walk stops descending at the violation cap, so
	// everything past it depends on global order; rerun sequentially.
	return v.ValidateDocument(doc)
}

// ParallelMinFanout is the child count below which a level is walked
// sequentially (with the split deferred to deeper levels): fan-out and
// join overhead only pay for themselves when there are enough sibling
// subtrees to spread. A variable so the seam tests can force tiny splits.
var ParallelMinFanout = 16

// parallelChildren fans one level's already-matched children out to
// workers in contiguous chunks (document order within a chunk, chunks
// joined in order). It reports whether it handled the children; false
// means the caller should fall through to the sequential loop.
func (r *run) parallelChildren(children []*dom.Element, leaves []*contentmodel.Leaf, path string, workers int) bool {
	if len(children) < 2 || len(r.res.Violations) >= maxViolations {
		return false
	}
	// Child paths are order-dependent (positional predicates count per
	// tag name); compute them up front, sequentially.
	var counts childCounts
	cpaths := make([]string, len(children))
	for i, child := range children {
		cpaths[i] = counts.path(path, child.TagName())
	}
	// A few chunks per worker so an expensive subtree doesn't leave the
	// other workers idle at the end of the level.
	chunk := (len(children) + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	nchunks := (len(children) + chunk - 1) / chunk
	if workers > nchunks {
		workers = nchunks
	}
	subs := make([]*run, nchunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				sub := &run{checker: newChecker(r.v, true)}
				subs[c] = sub
				for i := c * chunk; i < min((c+1)*chunk, len(children)); i++ {
					sub.child(children[i], leaves[i], cpaths[i])
				}
			}
		}()
	}
	wg.Wait()
	for _, sub := range subs {
		// Append without the cap: ParallelValidate checks the joined
		// total and falls back to the sequential walk.
		r.res.Violations = append(r.res.Violations, r.ids.join(sub.ids, sub.res.Violations)...)
	}
	return true
}

// ParallelValidateBytes parses and validates in one step like
// ValidateBytes, using the parallel walk for the validation phase.
func ParallelValidateBytes(schema *xsd.Schema, src []byte, workers int) (*dom.Document, *Result) {
	doc, err := dom.Parse(src)
	if err != nil {
		return nil, &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}
	}
	return doc, New(schema, nil).ParallelValidate(doc, workers)
}
