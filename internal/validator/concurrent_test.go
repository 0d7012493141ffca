package validator

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/xsd"
)

// TestConcurrentValidation drives one shared Validator from many
// goroutines (run under -race in the tier-1 recipe): the compiled-model
// cache, the schema and the read-only documents are all shared; only the
// per-run state is private.
func TestConcurrentValidation(t *testing.T) {
	v := poValidator(t)
	doc, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Mix shared-document and private-document runs, plus the
				// invalid path, to cover both outcomes concurrently.
				if res := v.ValidateDocument(doc); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: valid doc rejected: %v", id, res.Err())
					return
				}
				own, perr := dom.ParseString(schemas.PurchaseOrderDoc)
				if perr != nil {
					errs <- perr
					return
				}
				if res := v.ValidateDocument(own); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: private doc rejected: %v", id, res.Err())
					return
				}
				bad, perr := dom.ParseString(`<purchaseOrder orderDate="1999-10-20"><bogus/></purchaseOrder>`)
				if perr != nil {
					errs <- perr
					return
				}
				if res := v.ValidateDocument(bad); res.OK() {
					errs <- fmt.Errorf("goroutine %d: invalid doc accepted", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestModelCacheCompilesOnce proves that no matter how many concurrent
// runs exercise the same complex types, each type's content model
// compiles exactly once per schema.
func TestModelCacheCompilesOnce(t *testing.T) {
	v := poValidator(t)
	doc, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v.ValidateDocument(doc)
			}
		}()
	}
	wg.Wait()
	first := v.CompiledModels()
	if first == 0 {
		t.Fatal("no content models compiled — cache not exercised")
	}
	// 160 validations of a document with 4 element-only complex types
	// must not have compiled more models than distinct types.
	if first > 8 {
		t.Errorf("compiled %d models for one small document — cache not deduplicating", first)
	}
	v.ValidateDocument(doc)
	if got := v.CompiledModels(); got != first {
		t.Errorf("revalidation recompiled models: %d -> %d", first, got)
	}
}

// TestPackageEntryPointsReuseModels checks that the one-shot package
// functions, which build a fresh Validator per call, reuse the schema's
// compiled content models instead of recompiling them, and so cost no
// more than a warm Validator.
func TestPackageEntryPointsReuseModels(t *testing.T) {
	s, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := []byte(schemas.PurchaseOrderDoc)
	for name, call := range map[string]func() *Result{
		"ValidateBytes":         func() *Result { _, res := ValidateBytes(s, src); return res },
		"ParallelValidateBytes": func() *Result { _, res := ParallelValidateBytes(s, src, 2); return res },
	} {
		if res := call(); !res.OK() {
			t.Fatalf("%s: %v", name, res.Err())
		}
		before := s.CompiledModels()
		call()
		if n := s.CompiledModels() - before; n != 0 {
			t.Errorf("%s: second call compiled %d content models, want 0", name, n)
		}
	}
	v := New(s, nil)
	warm := testing.AllocsPerRun(20, func() {
		doc, err := dom.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		v.ValidateDocument(doc)
	})
	oneShot := testing.AllocsPerRun(20, func() { ValidateBytes(s, src) })
	if oneShot > warm+5 {
		t.Errorf("ValidateBytes: %.0f allocs/op, want within 5 of warm dom.Parse+ValidateDocument's %.0f", oneShot, warm)
	}
}

// TestValidateBatch checks index alignment, mixed outcomes and nil slots.
func TestValidateBatch(t *testing.T) {
	v := poValidator(t)
	good, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := dom.ParseString(`<purchaseOrder orderDate="1999-10-20"><bogus/></purchaseOrder>`)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*dom.Document, 0, 40)
	for i := 0; i < 20; i++ {
		docs = append(docs, good, bad)
	}
	docs[7] = nil
	results := v.ValidateBatch(docs)
	if len(results) != len(docs) {
		t.Fatalf("got %d results for %d docs", len(results), len(docs))
	}
	for i, res := range results {
		switch {
		case res == nil:
			t.Fatalf("result %d is nil", i)
		case i == 7:
			wantViolation(t, res, "nil document")
		case i%2 == 0 && !res.OK():
			t.Errorf("doc %d (valid) rejected: %v", i, res.Err())
		case i%2 == 1 && res.OK():
			t.Errorf("doc %d (invalid) accepted", i)
		}
	}
	if results, _ := v.ValidateBatchContext(context.Background(), nil); results != nil {
		t.Errorf("empty batch should return nil, got %v", results)
	}
}

// TestValidateBatchCancellation checks that a cancelled context stops the
// feed: the call returns ctx.Err() and leaves unprocessed slots nil.
func TestValidateBatchCancellation(t *testing.T) {
	v := poValidator(t)
	doc, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*dom.Document, 500)
	for i := range docs {
		docs[i] = doc
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	results, cerr := v.ValidateBatchContext(ctx, docs)
	if cerr == nil {
		t.Fatal("expected a context error from a cancelled batch")
	}
	if len(results) != len(docs) {
		t.Fatalf("result slice must stay index-aligned: %d vs %d", len(results), len(docs))
	}
	done := 0
	for _, res := range results {
		if res != nil {
			done++
		}
	}
	if done == len(docs) {
		t.Error("cancelled batch still processed every document")
	}
}

// TestStreamValidateBatchCancellation is TestValidateBatchCancellation
// for the bytes batch, plus what only the bytes batch does: a document
// already under way when ctx is cancelled stops mid-run, leaving its
// slot nil, and the batch reports ctx.Err() even though every document
// had started.
func TestStreamValidateBatchCancellation(t *testing.T) {
	sv := poValidator(t).Stream()

	t.Run("cancelled before the batch starts", func(t *testing.T) {
		srcs := make([][]byte, 500)
		for i := range srcs {
			srcs[i] = []byte(schemas.PurchaseOrderDoc)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		results, err := sv.ValidateBatchContext(ctx, srcs)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(results) != len(srcs) {
			t.Fatalf("result slice must stay index-aligned: %d vs %d", len(results), len(srcs))
		}
		for i, res := range results {
			if res != nil {
				t.Fatalf("slot %d validated after cancellation", i)
			}
		}
	})

	t.Run("cancelled inside the only document", func(t *testing.T) {
		var sb strings.Builder
		sb.WriteString(`<purchaseOrder orderDate="1999-10-20"><shipTo country="US"><name>a</name><street>s</street><city>c</city><state>CA</state><zip>1</zip></shipTo><billTo country="US"><name>b</name><street>s</street><city>c</city><state>PA</state><zip>2</zip></billTo><items>`)
		for i := 0; i < 20000; i++ {
			fmt.Fprintf(&sb, `<item partNum="%03d-AB"><productName>p</productName><quantity>1</quantity><USPrice>1.00</USPrice></item>`, i%1000)
		}
		sb.WriteString(`</items></purchaseOrder>`)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		time.AfterFunc(time.Millisecond, cancel)
		results, err := sv.ValidateBatchContext(ctx, [][]byte{[]byte(sb.String())})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(results) != 1 || results[0] != nil {
			t.Fatalf("results = %v, want one nil slot (a prefix proves nothing)", results)
		}
	})

	t.Run("empty batch", func(t *testing.T) {
		if results, err := sv.ValidateBatchContext(context.Background(), nil); results != nil || err != nil {
			t.Fatalf("empty batch = %v, %v; want nil, nil", results, err)
		}
	})
}
