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
// bounded interface joined at the seam — the DOM replay descends until
// it reaches a level with ParallelMinFanout element children (the root's
// depth-1 children in a wide document, or the <item> children of <items>
// in a deep purchase order), steps them through the level's automaton
// and validates contiguous chunks of them on workers through the subtree
// entry, each chunk with a private ID table. The join at the seams is:
//
//   - violations: concatenation in child order;
//   - IDs: each chunk's journal is added to the document's table in
//     child order; a duplicate inside a chunk already cites the right
//     first declaration;
//   - IDREFs: concatenation in child order, resolved at document end.
//
// A chunk's ID that the table already holds would need its duplicate
// violation inside the chunk's sequence, and past the violation cap
// (maxViolations) what is kept depends on global order. A document that
// shows either is rerun sequentially: correctness by construction on
// documents that are invalid anyway.
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
	if workers == 1 {
		return v.ValidateDocument(doc)
	}
	m := v.newMachine()
	m.workers = workers
	if res := m.document(doc); len(res.Violations) < maxViolations && !m.collided {
		return res
	}
	return v.ValidateDocument(doc)
}

// ParallelMinFanout is the element-child count below which a level is
// replayed sequentially (with the split deferred to deeper levels):
// fan-out and join overhead only pay for themselves when there are enough
// sibling subtrees to spread. A variable so the seam tests can force tiny
// splits.
var ParallelMinFanout = 16

// fanOut validates the element children of el, whose frame is open, on
// m.workers goroutines if there are at least ParallelMinFanout of them,
// and reports whether it did; the replay then skips them. Chunks join
// into the frame in document order. A content-model failure found while
// stepping the children is the frame's verdict, as on the sequential
// replay, and no child is validated.
func (m *machine) fanOut(el *dom.Element) bool {
	f := m.top()
	if f.mode != fmModel || f.failed || len(el.ChildNodes()) < ParallelMinFanout {
		return false
	}
	children := el.ChildElements()
	if len(children) < ParallelMinFanout {
		return false
	}
	path := m.path(f)
	leaves := f.leaves
	if !f.interp {
		leaves = make([]*contentmodel.Leaf, len(children))
		for i, c := range children {
			leaf, merr := f.run.Step(contentmodel.Symbol{Space: c.NamespaceURI(), Local: c.LocalName()})
			if merr != nil {
				m.rejectContent(f, childPath(path, c), merr.Error())
				return true
			}
			leaves[i] = leaf
		}
	}
	// The sub-runs start at the children, so each needs its path as its
	// base. Paths are order-dependent (positional predicates count per
	// tag name); compute them up front, sequentially.
	paths := make([]string, len(children))
	for i, c := range children {
		paths[i] = f.counts.next(c.Name()).under(path)
	}
	// A few chunks per worker so an expensive subtree doesn't leave the
	// other workers idle at the end of the level.
	workers := m.workers
	chunk := max(1, (len(children)+workers*4-1)/(workers*4))
	nchunks := (len(children) + chunk - 1) / chunk
	workers = min(workers, nchunks)
	subs := make([]*machine, nchunks)
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
				sub := m.v.newMachine()
				subs[c] = sub
				for i := c * chunk; i < min((c+1)*chunk, len(children)); i++ {
					child := children[i]
					decl, _, err := m.v.childDecl(leaves[i], xsd.QName{Space: child.NamespaceURI(), Local: child.LocalName()})
					if err != nil {
						report(&sub.res.Violations, paths[i], err.Error())
					} else if decl != nil {
						sub.enter(child, decl, false, nil, paths[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, sub := range subs {
		if !m.ids.join(sub.ids) {
			m.collided = true
		}
		// Append without the cap: ParallelValidate checks the total and
		// reruns sequentially at the cap.
		f.childViols = append(f.childViols, sub.res.Violations...)
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
