// Package validator checks DOM documents against a parsed XML Schema at
// runtime. This is the paper's baseline: with plain DOM, "invalid
// documents usually cannot be detected until runtime requiring extensive
// testing" (§2) — this package is that runtime detection, and the E2
// benchmarks measure exactly the cost V-DOM's static guarantee removes.
//
// Beyond the paper's scope it also implements the features the paper
// explicitly defers (§3): wildcard validation, ID/IDREF integrity and
// identity constraints (xs:unique/key/keyref).
//
// # Role in the pipeline
//
// validator sits at the end of the runtime half of the pipeline
// (xsd parse → normalize → contentmodel → codegen/vdom → validator →
// pxml): it consumes the resolved component model from package xsd and
// the compiled matchers from package contentmodel, and judges trees built
// by package dom. The test suite also uses it as the independent oracle
// that everything the typed V-DOM API (package vdom) can express
// marshals to a valid document.
//
// # One walk, two drivers
//
// Every entry point runs one walk: the frame machine (stream.go), an
// explicit stack of open elements, each with its automaton state and
// buffered violations, driven by start, text, CDATA, comment, PI and end
// events. Two drivers feed it. The token loop (StreamValidator) feeds it
// the decoder's tokens. The DOM replay (validator.go) walks a parsed or
// programmatically built tree and feeds it the same events, with the
// node's text passed as is; ValidateDocument, ValidateElement,
// ValidateBytes, ParallelValidate chunks, generated validators (through
// Sink) and the token stream's buffered subtrees all enter a tree through
// one subtree entry that seeds the namespace bindings the element
// inherits, opens its frame, replays and closes it. What makes an element
// valid is decided once, in rules.go: the governing type (xsi:type,
// abstract, xsi:nil), the attribute set, simple content, QName
// resolution, indexed child paths and the child dispatch (substitution
// groups, lax wildcards). A document's ID/IDREF state is one idTable
// (ids.go), whose journal lets the machine roll back the IDs of children
// a failed content model disowns and lets parallel sub-runs be joined at
// their seams. Content models come from the schema:
// xsd.ComplexType.Matcher compiles each complex type once into a Glushkov
// automaton with a lazy DFA (at most contentmodel.DefaultDFABudget
// states, NFA stepping past it), shared by every Validator, walk and
// goroutine over that schema.
//
// Both drivers fire the same observer events (events.go:
// ValidateDocumentEvents, ValidateElementEvents, ValidateBytesEvents,
// ValidateReaderEvents), which is how internal/bind decodes values and
// codegen's corpus pruning records the declarations a corpus reaches.
//
// # Streaming entry points
//
// Validator.Stream returns a StreamValidator, which decides validity
// incrementally from the token stream instead of a materialized tree:
// StreamValidator.ValidateReader consumes an io.Reader with memory
// proportional to tree depth (O(depth), no DOM allocation), and
// StreamValidator.ValidateBytes is its in-memory counterpart.
// ValidateReaderContext is the cancellable form — it checks the context
// between token batches and returns (nil, ctx.Err()) on expiry, the
// same contract as ValidateBatchContext; servers use it to stop
// validating when a request's deadline fires mid-stream. It drives the
// same frame machine as the DOM replay and reproduces ValidateDocument's verdicts, violation order
// and messages exactly (held by the TestStreamMatchesDOM differential
// suite). Subtrees the token stream cannot decide incrementally —
// identity constraints, or content models compiled to the backtracking
// interpreter — are buffered privately and replayed through the same
// machine. cmd/xsdcheck exposes the streaming path as -stream.
//
// # Intra-document parallelism
//
// Validator.ParallelValidate splits one large document across a
// GOMAXPROCS-bounded worker pool at sibling-subtree boundaries: the
// replay descends until it finds a level with at least ParallelMinFanout
// element children, fans contiguous chunks of that level out to workers
// running the subtree entry, and joins the document-global state —
// ordered violations, IDs, IDREF resolution — at the seams (see
// parallel.go). The verdict is byte-identical to ValidateDocument's,
// enforced by differential tests and FuzzParallelValidate; documents
// whose IDs collide across chunks or that reach the violation cap are
// rerun sequentially. cmd/xsdcheck exposes it as -parallel, xsdserved as
// ?parallel=1 (size-gated).
//
// # Concurrency
//
// A Validator is safe for concurrent use by multiple goroutines and is
// intended to be shared: all mutable per-run state is private to each
// call, and the compiled content models live on the immutable schema,
// built under a per-type sync.Once. ValidateBatch fans a document slice
// out over a bounded worker pool (Options.Parallelism, default
// GOMAXPROCS); StreamValidator.ValidateBatchContext runs the same pool
// over unparsed documents, stream-validating each from its bytes. A StreamValidator holds no per-run state either, so one
// StreamValidator may serve any number of goroutines, interleaved freely
// with DOM-path runs on the same Validator (asserted under -race by
// TestStreamConcurrent). Documents are only read; callers must not mutate
// a document while it is being validated.
package validator
