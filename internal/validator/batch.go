package validator

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"repro/internal/dom"
	"repro/internal/xmlparser"
)

// ValidateBatch validates every document concurrently through a bounded
// worker pool and returns one Result per document, index-aligned with
// docs. The pool size is Options.Parallelism (defaulting to
// runtime.GOMAXPROCS(0)); all workers step the schema's compiled
// automata, built at most once per type. Nil documents yield a Result
// with a single violation rather than a panic.
//
// This is the bulk path for the ROADMAP's repeated same-schema workload
// when the trees already exist; StreamValidator.ValidateBatchContext is
// the same pool over unparsed documents.
func (v *Validator) ValidateBatch(docs []*dom.Document) []*Result {
	results, _ := v.ValidateBatchContext(context.Background(), docs)
	return results
}

// ValidateBatchContext is ValidateBatch with cancellation. When ctx is
// cancelled, in-flight documents finish but no new ones start; the
// returned error is ctx.Err() and the unprocessed slots of the result
// slice are nil. A nil slice is returned only for an empty batch.
func (v *Validator) ValidateBatchContext(ctx context.Context, docs []*dom.Document) ([]*Result, error) {
	if len(docs) == 0 {
		return nil, ctx.Err()
	}
	results := make([]*Result, len(docs))
	err := v.fanOut(ctx, len(docs), func(i int) {
		results[i] = v.validateOne(docs[i])
	})
	return results, err
}

// ValidateBatchContext validates every document from its bytes on the
// parent Validator's worker pool and returns one Result per document,
// index-aligned with srcs. Each worker parses and validates one document
// at a time through the token stream, so no DOM is built and a batch's
// peak memory beyond the sources is O(workers × depth), plus any subtrees
// buffered for identity constraints. A
// malformed document's Result carries its parse error, as ValidateBytes'
// does.
//
// Cancellation goes further than Validator.ValidateBatchContext's: no new
// document starts, and in-flight documents stop at their next
// cancellation check (every ctxCheckEvery tokens). Their slots and the
// unstarted ones stay nil, and the returned error is ctx.Err(). A nil
// slice is returned only for an empty batch.
func (sv *StreamValidator) ValidateBatchContext(ctx context.Context, srcs [][]byte) ([]*Result, error) {
	if len(srcs) == 0 {
		return nil, ctx.Err()
	}
	results := make([]*Result, len(srcs))
	err := sv.v.fanOut(ctx, len(srcs), func(i int) {
		// A run stopped by ctx returns a nil Result: its slot stays nil.
		results[i], _ = sv.validate(ctx, xmlparser.NewDecoder(srcs[i], nil), nil)
	})
	if err == nil && slices.Contains(results, nil) {
		// Every document started, but ctx stopped one mid-run.
		err = ctx.Err()
	}
	return results, err
}

// fanOut calls do(i) for every i in [0, n) on at most Options.Parallelism
// workers (default runtime.GOMAXPROCS(0)). When ctx is cancelled no new
// index is handed out; fanOut waits for the calls under way and returns
// ctx.Err().
func (v *Validator) fanOut(ctx context.Context, n int, do func(i int)) error {
	workers := v.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
			}
		}()
	}
	var err error
feed:
	for i := range n {
		select {
		case jobs <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return err
}

// validateOne guards a single batch slot against nil documents.
func (v *Validator) validateOne(doc *dom.Document) *Result {
	if doc == nil {
		return &Result{Violations: []Violation{{Path: "/", Msg: "nil document"}}}
	}
	return v.ValidateDocument(doc)
}
