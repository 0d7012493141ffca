package validator

// Streaming validation: the paper's §5–6 pipeline compiles content models
// to Glushkov automata precisely so validity can be decided incrementally.
// StreamValidator drives those automata directly off the token
// stream with an explicit element/automaton-state stack — O(depth) memory,
// no DOM allocation — while reproducing ValidateDocument's verdicts and
// messages exactly.
//
// The DOM validator is not causal: when an element's content model fails,
// it reports the one match error and validates none of the children, and
// ID tracking never sees the abandoned subtree. A streaming pass has
// already validated the prefix children by the time the automaton rejects,
// so verdict parity needs two mechanisms:
//
//   - per-frame violation buffering: each open element accumulates its
//     attribute, text and child violations separately and assembles them
//     in DOM emission order at its end tag; a content-model failure drops
//     the buffered child violations wholesale.
//   - a journaled ID table (idTable): each frame marks the table after its
//     own attributes, and on content-model failure the IDs and pending
//     IDREFs recorded past the mark are rolled back. Between a frame's
//     mark and its failure only to-be-dropped descendants run, so rollback
//     restores exactly the state the DOM validator would have.
//
// Elements the streaming path cannot decide incrementally — identity
// constraints (which need the whole subtree) and content models compiled
// to the backtracking interpreter (contentmodel.ErrTooComplex) — degrade
// gracefully: their subtree is buffered into a private DOM fragment and
// validated by the ordinary recursive path with the stream's ID table.

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// StreamValidator validates documents incrementally from a token stream.
// Obtain one with Validator.Stream. It holds no per-run state, so a single
// StreamValidator (like its parent Validator) is safe for concurrent use:
// each ValidateReader/ValidateBytes call allocates a private run and
// shares only the Validator's immutable schema.
type StreamValidator struct {
	v *Validator
}

// Stream returns a streaming front-end over the validator. Both paths step
// the schema's compiled automata (xsd.ComplexType.Matcher).
func (v *Validator) Stream() *StreamValidator { return &StreamValidator{v: v} }

// ValidateReader validates a document read incrementally from r. Memory
// use is proportional to tree depth (plus any subtrees buffered for
// identity constraints), not document size. The verdict, violation order
// and messages match ValidateBytes on the same input.
func (sv *StreamValidator) ValidateReader(r io.Reader) *Result {
	res, _ := sv.ValidateReaderContext(context.Background(), r)
	return res
}

// ValidateReaderContext is ValidateReader with cancellation, with
// ValidateBatchContext's semantics: when ctx is cancelled the run stops
// at the next token boundary, the partial verdict is discarded (a prefix
// proves nothing about the document) and the returned error is ctx.Err().
// A nil error means the stream was fully consumed and the Result is the
// same one ValidateReader would have produced.
//
// Cancellation is checked between tokens, so a Read blocked indefinitely
// on a dead reader is not interrupted by ctx alone; servers should pair
// the deadline with a transport-level one (net/http request bodies
// already fail their Reads when the connection closes).
func (sv *StreamValidator) ValidateReaderContext(ctx context.Context, r io.Reader) (*Result, error) {
	return sv.validate(ctx, xmlparser.NewReaderDecoder(r, nil), nil)
}

// ValidateBytes validates an in-memory document through the streaming
// path (no DOM is built). It is the drop-in counterpart of the package
// function ValidateBytes.
func (sv *StreamValidator) ValidateBytes(src []byte) *Result {
	res, _ := sv.validate(context.Background(), xmlparser.NewDecoder(src, nil), nil)
	return res
}

// ctxCheckEvery is how many tokens the streaming loop processes between
// cancellation checks: rare enough that the select never shows up in
// profiles, frequent enough that a deadline trips within microseconds.
const ctxCheckEvery = 256

func (sv *StreamValidator) validate(ctx context.Context, dec *xmlparser.Decoder, ev StreamEvents) (*Result, error) {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
	sr := &streamRun{checker: newChecker(sv.v, true), events: ev}
	sinceCheck := 0
	// tok is declared once: the loop hands its address to sr.token, so a
	// per-iteration declaration would move every token to the heap.
	var tok xmlparser.Token
	var err error
	for {
		if done != nil {
			if sinceCheck++; sinceCheck >= ctxCheckEvery {
				sinceCheck = 0
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
		}
		tok, err = dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Parity with ValidateBytes: a malformed document yields
			// only the parse error, regardless of violations already
			// observed in the prefix.
			return &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}, nil
		}
		sr.token(&tok)
	}
	sr.ids.resolve(&sr.res.Violations)
	return &sr.res, nil
}

// frame modes.
const (
	fmModel    = iota // complex element-only/mixed content, Glushkov Run
	fmSimple          // simple-typed element
	fmCSimple         // complex type with simple content
	fmCEmpty          // complex type with empty content
	fmNilled          // xsi:nil="true" on a nillable element
	fmDead            // xsi:type/abstract/nil gate failed; subtree skipped
	fmFallback        // subtree buffered for the DOM path
)

// frame is one open element on the streaming stack.
type frame struct {
	path string
	decl *xsd.ElementDecl
	mode int

	st    *xsd.SimpleType   // fmSimple / fmCSimple value type
	run   *contentmodel.Run // fmModel automaton state
	mixed bool

	// Buffered violations, assembled in DOM order at the end tag.
	attrViols   []Violation
	textViols   []Violation
	childViols  []Violation
	contentViol *Violation
	failed      bool

	sawElemChild bool
	textBuf      []byte // accumulated character data (fmSimple/fmCSimple)

	counts childCounts // child paths
	ids    idMark      // ID table after own attributes
	nsMark int         // namespace-binding stack mark

	// Event-observer bookkeeping: announced marks frames whose OpenElement
	// was delivered (and so owe a CloseElement); wild marks wildcard-
	// admitted elements; evVal carries the parsed simple value from
	// closeFrame to the CloseElement callback.
	announced bool
	wild      bool
	evVal     *xsdtypes.Value

	// fmFallback subtree buffer.
	fbDoc   *dom.Document
	fbRoot  *dom.Element
	fbCur   dom.Node
	fbDepth int

	// pooled marks a frame sitting on the free list; reset clears it.
	pooled bool
}

// reset re-initializes a recycled frame, keeping the capacity of its
// buffers (and the automaton run's internal state) for reuse.
func (f *frame) reset(path string, decl *xsd.ElementDecl, nsMark int) {
	run := f.run
	attrViols, textViols, childViols := f.attrViols[:0], f.textViols[:0], f.childViols[:0]
	textBuf := f.textBuf[:0]
	*f = frame{path: path, decl: decl, nsMark: nsMark,
		run: run, attrViols: attrViols, textViols: textViols,
		childViols: childViols, textBuf: textBuf}
}

// nsBinding is one in-scope namespace declaration. name is "xmlns" for the
// default namespace and the prefix otherwise, the keys parseQName looks up.
type nsBinding struct {
	name string
	uri  string
}

// streamRun is one streaming validation pass.
type streamRun struct {
	checker
	res Result

	frames    []*frame
	free      []*frame // recycled frames; popped elements return here
	skipDepth int      // >0: inside an unvalidated subtree
	rootDone  bool

	// events, when non-nil, receives the structural callbacks; rawSkip
	// marks the current skipped subtree as observer-visible (a wildcard
	// match with no declaration) rather than an invalid one.
	events  StreamEvents
	rawSkip bool

	ns []nsBinding
}

func (sr *streamRun) top() *frame {
	if len(sr.frames) == 0 {
		return nil
	}
	return sr.frames[len(sr.frames)-1]
}

// newFrame returns a recycled or fresh frame.
func (sr *streamRun) newFrame(path string, decl *xsd.ElementDecl, nsMark int) *frame {
	if n := len(sr.free); n > 0 {
		f := sr.free[n-1]
		sr.free = sr.free[:n-1]
		f.reset(path, decl, nsMark)
		return f
	}
	return &frame{path: path, decl: decl, nsMark: nsMark}
}

// recycle returns a popped frame to the free list. Its buffered violations
// must already have been delivered (deliver copies them out). Recycling a
// frame twice would hand its contentmodel.Run to two live frames at once —
// exactly the interleaving the Run's single-owner contract forbids — so a
// double recycle panics here instead of corrupting a later match.
func (sr *streamRun) recycle(f *frame) {
	if f.pooled {
		panic("validator: stream frame recycled twice")
	}
	f.pooled = true
	sr.free = append(sr.free, f)
}

// token dispatches one parse event.
func (sr *streamRun) token(tok *xmlparser.Token) {
	if sr.skipDepth > 0 {
		if sr.rawSkip {
			sr.events.RawToken(tok)
		}
		switch tok.Kind {
		case xmlparser.KindStartElement:
			sr.skipDepth++
		case xmlparser.KindEndElement:
			if sr.skipDepth--; sr.skipDepth == 0 {
				sr.rawSkip = false
			}
		}
		return
	}
	if f := sr.top(); f != nil && f.mode == fmFallback {
		sr.feedFallback(f, tok)
		return
	}
	switch tok.Kind {
	case xmlparser.KindStartElement:
		sr.startElement(tok)
	case xmlparser.KindEndElement:
		sr.endElement()
	case xmlparser.KindText:
		sr.textNode(tok, false)
	case xmlparser.KindCData:
		sr.textNode(tok, true)
	case xmlparser.KindComment, xmlparser.KindProcInst:
		// Comments and PIs are DOM child nodes: they violate only the
		// "nilled element must be empty" rule.
		if f := sr.top(); f != nil && f.mode == fmNilled {
			f.setFailed(msgNilled)
		}
	}
}

func (sr *streamRun) startElement(tok *xmlparser.Token) {
	nsMark := len(sr.ns)
	for i := range tok.Attrs {
		if a := &tok.Attrs[i]; a.IsNamespaceDecl {
			sr.ns = append(sr.ns, nsBinding{name: a.Name.Local, uri: a.Value})
		}
	}
	parent := sr.top()
	if parent == nil {
		if sr.rootDone {
			sr.skipChild(nsMark)
			return
		}
		decl, fail := sr.v.rootDecl(tok.Name)
		if decl == nil {
			report(&sr.res.Violations, "/"+tok.Name.Qualified(), fail)
			sr.rootDone = true
			sr.skipChild(nsMark)
			return
		}
		sr.pushFrame(tok, decl, "/"+tok.Name.Qualified(), nsMark, false)
		return
	}
	switch parent.mode {
	case fmModel:
		if parent.failed {
			break
		}
		leaf, merr := parent.run.Step(contentmodel.Symbol{Space: tok.Name.Space, Local: tok.Name.Local})
		if merr != nil {
			sr.rejectContent(parent, parent.path+"/"+tok.Name.Qualified(), merr.Error())
			break
		}
		cpath := parent.counts.path(parent.path, tok.Name.Qualified())
		decl, wild, err := sr.v.childDecl(leaf, xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local})
		if err != nil {
			report(&parent.childViols, cpath, err.Error())
		} else if decl != nil {
			sr.pushFrame(tok, decl, cpath, nsMark, wild)
			return
		} else if wild && sr.events != nil {
			// Deliver the unvalidated subtree raw, starting with this
			// start tag.
			sr.events.RawToken(tok)
			sr.rawSkip = true
		}
	case fmSimple, fmCSimple:
		parent.sawElemChild = true
	case fmCEmpty:
		parent.setFailed(fmt.Sprintf("element <%s> is not allowed in empty content", tok.Name.Qualified()))
	case fmNilled:
		parent.setFailed(msgNilled)
	}
	sr.skipChild(nsMark)
}

// setFailed records the frame's first content violation.
func (f *frame) setFailed(msg string) {
	if !f.failed {
		f.failed = true
		f.contentViol = &Violation{Path: f.path, Msg: msg}
	}
}

// skipChild discards the bindings pushed for the current start tag and
// skips its subtree; the matching (possibly synthesized) end tag
// rebalances skipDepth.
func (sr *streamRun) skipChild(nsMark int) {
	sr.ns = sr.ns[:nsMark]
	sr.skipDepth = 1
}

// lookupNS finds the innermost binding of prefix ("xmlns" for the default
// namespace).
func (sr *streamRun) lookupNS(prefix string) (string, bool) {
	for i := len(sr.ns) - 1; i >= 0; i-- {
		if sr.ns[i].name == prefix {
			return sr.ns[i].uri, true
		}
	}
	return "", false
}

// pushFrame opens the element's frame: it applies the governing-type
// rule, checks the attributes and sets the frame up for its content.
// wild marks an element admitted by a content-model wildcard.
func (sr *streamRun) pushFrame(tok *xmlparser.Token, decl *xsd.ElementDecl, path string, nsMark int, wild bool) {
	f := sr.newFrame(path, decl, nsMark)
	f.wild = wild
	sr.frames = append(sr.frames, f)
	xsiType, _ := tok.Attr(xsd.XSINamespace, "type")
	xsiNil, _ := tok.Attr(xsd.XSINamespace, "nil")
	typ, nilled, fail := sr.v.governingType(decl, xsiType, xsiNil, sr.lookupNS)
	if fail != "" {
		f.mode = fmDead
		f.setFailed(fail)
		return
	}
	if nilled {
		f.mode = fmNilled
		sr.announce(f, typ, tok, true)
		return
	}
	// Degrade to the DOM path where streaming cannot decide: identity
	// constraints need the whole subtree, and Interp-compiled content
	// models are not incremental.
	ct, _ := typ.(*xsd.ComplexType)
	model := ct != nil && (ct.Kind == xsd.ContentElementOnly || ct.Kind == xsd.ContentMixed)
	var g *contentmodel.Glushkov
	if model {
		g, _ = ct.Matcher(sr.v.schema).(*contentmodel.Glushkov)
	}
	if len(decl.Constraints) > 0 || (model && g == nil) {
		sr.startFallback(f, tok)
		return
	}
	sr.attributes(typ, len(tok.Attrs), func(i int) (xmlparser.Name, string) {
		return tok.Attrs[i].Name, tok.Attrs[i].Value
	}, f.path, &f.attrViols)
	switch {
	case ct == nil:
		f.mode = fmSimple
		f.st = typ.(*xsd.SimpleType)
	case ct.Kind == xsd.ContentSimple:
		f.mode = fmCSimple
		f.st = ct.SimpleContentType
	case ct.Kind == xsd.ContentEmpty:
		f.mode = fmCEmpty
	case model:
		f.mode = fmModel
		f.mixed = ct.Kind == xsd.ContentMixed
		if f.run != nil {
			f.run.Reset(g)
		} else {
			f.run = g.Start()
		}
	}
	f.ids = sr.ids.mark()
	sr.announce(f, typ, tok, false)
}

// announce delivers OpenElement for a frame that passed the prologue.
func (sr *streamRun) announce(f *frame, typ xsd.Type, tok *xmlparser.Token, nilled bool) {
	if sr.events == nil {
		return
	}
	f.announced = true
	sr.events.OpenElement(f.decl, typ, tok, nilled, f.wild)
}

// textNode consumes a character-data or CDATA token. It works on the
// token's zero-copy byte view: whitespace checks and simple-content
// accumulation never materialize a string, so pure scanning stays
// allocation-free. Strings are built only when a violation needs a
// snippet or a binding consumer wants the mixed text.
func (sr *streamRun) textNode(tok *xmlparser.Token, cdata bool) {
	f := sr.top()
	if f == nil {
		return // document-level whitespace or misc
	}
	data := tok.Bytes()
	if !cdata && len(data) == 0 {
		return // dom.Parse drops empty text nodes
	}
	switch f.mode {
	case fmModel:
		if f.mixed {
			if sr.events != nil {
				sr.events.MixedText(tok.Data())
			}
			return
		}
		if cdata {
			report(&f.textViols, f.path, "character data is not allowed in element-only content")
		} else if len(bytes.TrimSpace(data)) != 0 {
			report(&f.textViols, f.path, fmt.Sprintf("character data %q is not allowed in element-only content", snippet(tok.Data())))
		}
	case fmSimple, fmCSimple:
		f.textBuf = append(f.textBuf, data...)
	case fmCEmpty:
		if cdata || len(bytes.TrimSpace(data)) != 0 {
			f.setFailed("character data is not allowed in empty content")
		}
	case fmNilled:
		f.setFailed(msgNilled)
	}
}

func (sr *streamRun) endElement() {
	n := len(sr.frames)
	if n == 0 {
		return
	}
	f := sr.frames[n-1]
	sr.frames = sr.frames[:n-1]
	sr.ns = sr.ns[:f.nsMark]
	sr.deliver(sr.closeFrame(f))
	if f.announced {
		sr.events.CloseElement(f.evVal)
	}
	sr.recycle(f)
}

// deliver routes a closed frame's violations to its parent's buffer, or
// to the result when the root closes.
func (sr *streamRun) deliver(viols []Violation) {
	if p := sr.top(); p != nil {
		p.childViols = append(p.childViols, viols...)
		return
	}
	sr.rootDone = true
	for _, v := range viols {
		report(&sr.res.Violations, v.Path, v.Msg)
	}
}

// rejectContent records a content-model failure at path. The DOM walk
// reports the match error and validates none of the element's children,
// so the children's buffered violations are dropped and their IDs and
// IDREFs rolled back.
func (sr *streamRun) rejectContent(f *frame, path, msg string) {
	f.failed = true
	f.contentViol = &Violation{Path: path, Msg: msg}
	f.childViols = nil
	sr.ids.rollback(f.ids)
}

// closeFrame assembles the frame's violations in the order the DOM
// validator emits them.
func (sr *streamRun) closeFrame(f *frame) []Violation {
	switch f.mode {
	case fmModel:
		if !f.failed {
			if merr := f.run.End(); merr != nil {
				// Premature end: reported against the element itself.
				sr.rejectContent(f, f.path, merr.Error())
			}
		}
		if !f.failed && len(f.attrViols) == 0 && len(f.textViols) == 0 {
			// Hot path: nothing buffered; deliver copies before recycle.
			return f.childViols
		}
		viols := make([]Violation, 0, len(f.attrViols)+len(f.textViols)+1)
		viols = append(viols, f.attrViols...)
		viols = append(viols, f.textViols...)
		if f.failed {
			viols = append(viols, *f.contentViol)
		} else {
			viols = append(viols, f.childViols...)
		}
		return viols
	case fmSimple:
		// The text's violations come first, then the attributes'.
		var viols []Violation
		val, ok := sr.simpleText(f.st, f.decl, f.sawElemChild, string(f.textBuf), f.path, &viols)
		sr.announceValue(f, val, ok)
		return append(viols, f.attrViols...)
	case fmCSimple:
		viols := f.attrViols
		val, ok := sr.contentText(f.st, f.sawElemChild, string(f.textBuf), f.path, &viols)
		sr.announceValue(f, val, ok)
		return viols
	default: // fmCEmpty, fmNilled, fmDead
		viols := f.attrViols
		if f.contentViol != nil {
			viols = append(viols, *f.contentViol)
		}
		return viols
	}
}

// announceValue hands a simple element's parsed value to CloseElement.
// Only a copy escapes, and only for announced frames.
func (sr *streamRun) announceValue(f *frame, val xsdtypes.Value, ok bool) {
	if ok && f.announced {
		v := val
		f.evVal = &v
	}
}

// startFallback begins buffering the element's subtree into a private DOM
// fragment for the recursive validator.
func (sr *streamRun) startFallback(f *frame, tok *xmlparser.Token) {
	f.mode = fmFallback
	doc := dom.NewPooledDocument()
	root := doc.CreateElementNS(tok.Name.Space, tok.Name.Qualified())
	for i := range tok.Attrs {
		a := &tok.Attrs[i]
		root.SetAttributeNS(a.Name.Space, a.Name.Qualified(), a.Value)
	}
	// Graft the in-scope namespace bindings onto the buffered root so
	// xsi:type prefixes resolve as they would in the full tree. Innermost bindings win; locally declared ones are already set.
	for i := len(sr.ns) - 1; i >= 0; i-- {
		b := sr.ns[i]
		if root.HasAttributeNS(xmlparser.XMLNSNamespace, b.name) {
			continue
		}
		q := "xmlns"
		if b.name != "xmlns" {
			q = "xmlns:" + b.name
		}
		root.SetAttributeNS(xmlparser.XMLNSNamespace, q, b.uri)
	}
	doc.AppendChild(root)
	f.fbDoc = doc
	f.fbRoot = root
	f.fbCur = root
	f.fbDepth = 1
}

// feedFallback appends one token to the buffered subtree, mapping tokens
// to nodes the way dom.Parse does.
func (sr *streamRun) feedFallback(f *frame, tok *xmlparser.Token) {
	doc := f.fbDoc
	switch tok.Kind {
	case xmlparser.KindStartElement:
		e := doc.CreateElementNS(tok.Name.Space, tok.Name.Qualified())
		for i := range tok.Attrs {
			a := &tok.Attrs[i]
			e.SetAttributeNS(a.Name.Space, a.Name.Qualified(), a.Value)
		}
		f.fbCur.AppendChild(e)
		f.fbCur = e
		f.fbDepth++
	case xmlparser.KindEndElement:
		f.fbDepth--
		if f.fbDepth == 0 {
			sr.completeFallback(f)
			return
		}
		f.fbCur = f.fbCur.ParentNode()
	case xmlparser.KindText:
		if tok.Data() == "" {
			return
		}
		f.fbCur.AppendChild(doc.CreateTextNode(tok.Data()))
	case xmlparser.KindCData:
		f.fbCur.AppendChild(doc.CreateCDATASection(tok.Data()))
	case xmlparser.KindComment:
		f.fbCur.AppendChild(doc.CreateComment(tok.Data()))
	case xmlparser.KindProcInst:
		f.fbCur.AppendChild(doc.CreateProcessingInstruction(tok.Target, tok.Data()))
	}
}

// completeFallback validates the buffered subtree with the recursive DOM
// path, recording its IDs in the stream's table so rollback covers them.
func (sr *streamRun) completeFallback(f *frame) {
	sr.frames = sr.frames[:len(sr.frames)-1]
	sr.ns = sr.ns[:f.nsMark]
	sub := run{checker: sr.checker}
	sub.element(f.fbRoot, f.decl, f.path)
	sr.deliver(sub.res.Violations)
	if sr.events != nil {
		sr.events.FallbackElement(f.decl, f.fbRoot, f.wild)
	}
	// The buffered subtree is private to this frame and the recursive run
	// above only keeps strings, so its pooled nodes can be recycled now.
	f.fbDoc.Release()
	f.fbDoc, f.fbRoot, f.fbCur = nil, nil, nil
	sr.recycle(f)
}
