package validator

// The frame machine: the one walk every entry point runs. The paper's
// §5–6 pipeline compiles content models to Glushkov automata precisely so
// validity can be decided in one left-to-right pass; the machine drives
// those automata from start, text, CDATA, comment, PI and end events with
// an explicit element/automaton-state stack. Two drivers feed it: the
// token loop below (StreamValidator, O(depth) memory, no DOM) and the DOM
// replay in validator.go (ValidateDocument and every other tree entry).
//
// A content model can reject an element only after its earlier children
// have been validated, and the verdict must then be the element's match
// error alone, as if those children had never been seen. Two mechanisms
// make that so:
//
//   - per-frame violation buffering: each open element accumulates its
//     attribute, text and child violations separately and assembles them
//     at its end (attributes, text, then the match error or the children);
//     a content-model failure drops the buffered child violations
//     wholesale.
//   - a journaled ID table (idTable): each frame marks the table after its
//     own attributes, and on content-model failure the IDs and pending
//     IDREFs recorded past the mark are rolled back. Between a frame's
//     mark and its failure only to-be-dropped descendants run, so rollback
//     restores exactly the state before them.
//
// Two things need more than the events so far: identity constraints need
// the constrained element's whole subtree, and content models compiled to
// the backtracking interpreter (contentmodel.ErrTooComplex) match a whole
// child sequence at once. The DOM replay has the element at hand, so it
// checks constraints when the element's frame closes and matches an
// interpreted model when the frame opens. The token stream buffers such
// a subtree into a private DOM fragment and replays it.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

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

// ValidateWellFormed validates an in-memory document like ValidateBytes,
// but keeps a malformed document apart from an invalid one: a parse
// error comes back as the error, with a nil Result, instead of as the
// verdict's one violation. Binder.Marshal re-checks its output with it.
func (sv *StreamValidator) ValidateWellFormed(src []byte) (*Result, error) {
	res, perr, _ := sv.run(context.Background(), xmlparser.NewDecoder(src, nil), nil)
	return res, perr
}

// ctxCheckEvery is how many tokens the streaming loop processes between
// cancellation checks: rare enough that the select never shows up in
// profiles, frequent enough that a deadline trips within microseconds.
const ctxCheckEvery = 256

// validate is run with a malformed document's parse error folded into
// the verdict, as ValidateBytes reports it.
func (sv *StreamValidator) validate(ctx context.Context, dec *xmlparser.Decoder, ev StreamEvents) (*Result, error) {
	res, perr, err := sv.run(ctx, dec, ev)
	if perr != nil {
		// Parity with ValidateBytes: a malformed document yields only
		// the parse error, regardless of violations already observed in
		// the prefix.
		return &Result{Violations: []Violation{{Path: "/", Msg: perr.Error()}}}, nil
	}
	return res, err
}

// run drives the frame machine over dec's tokens. It returns the verdict,
// or the parse error of a malformed document, or ctx.Err() when ctx
// stopped the run first.
func (sv *StreamValidator) run(ctx context.Context, dec *xmlparser.Decoder, ev StreamEvents) (res *Result, perr, err error) {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return nil, nil, ctx.Err()
		default:
		}
	}
	m := sv.v.newMachine()
	m.events = ev
	sinceCheck := 0
	// tok is declared once: the loop hands its address to m.token, so a
	// per-iteration declaration would move every token to the heap.
	var tok xmlparser.Token
	for {
		if done != nil {
			if sinceCheck++; sinceCheck >= ctxCheckEvery {
				sinceCheck = 0
				select {
				case <-done:
					return nil, nil, ctx.Err()
				default:
				}
			}
		}
		tok, err = dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err, nil
		}
		m.token(&tok)
	}
	m.ids.resolve(&m.res.Violations)
	return &m.res, nil, nil
}

// frame modes. The modes before fmNilled validate the element's content.
const (
	fmModel    = iota // complex element-only/mixed content
	fmSimple          // simple-typed element
	fmCSimple         // complex type with simple content
	fmCEmpty          // complex type with empty content
	fmNilled          // xsi:nil="true" on a nillable element
	fmDead            // xsi:type/abstract/nil gate failed; subtree skipped
	fmFallback        // subtree buffered for the DOM replay
)

// frame is one open element on the machine's stack.
type frame struct {
	at   step             // under the parent frame; unused on the entry frame
	decl *xsd.ElementDecl // nil for a content-only frame (Sink.ElementContent)
	mode int
	el   *dom.Element // the element on the DOM replay; nil on the token stream

	st    *xsd.SimpleType   // fmSimple / fmCSimple value type
	run   *contentmodel.Run // fmModel Glushkov automaton state
	mixed bool
	// interp marks an fmModel frame whose interpreted model matched the
	// children up front; leaves holds the leaves of those not yet opened.
	interp bool
	leaves []*contentmodel.Leaf

	// Buffered violations, assembled at the end tag.
	attrViols   []Violation
	textViols   []Violation
	childViols  []Violation
	contentViol *Violation
	failed      bool

	sawElemChild bool
	textBuf      []byte // accumulated character data (fmSimple/fmCSimple)

	counts childCounts // child steps
	ids    idMark      // ID table after own attributes
	nsMark int         // namespace-binding stack mark

	// Event-observer bookkeeping: announced marks frames whose OpenElement
	// was delivered (and so owe a CloseElement); wild marks wildcard-
	// admitted elements; evVal points at the machine's value slot when
	// closeFrame parsed a simple value for the CloseElement callback.
	announced bool
	wild      bool
	evVal     *xsdtypes.Value

	fb fragment // fmFallback subtree buffer

	// pooled marks a frame sitting on the free list; reset clears it.
	pooled bool
}

// reset re-initializes a recycled frame, keeping the capacity of its
// buffers (and the automaton run's internal state) for reuse.
func (f *frame) reset(at step, decl *xsd.ElementDecl, nsMark int) {
	run := f.run
	attrViols, textViols, childViols := f.attrViols[:0], f.textViols[:0], f.childViols[:0]
	textBuf := f.textBuf[:0]
	*f = frame{at: at, decl: decl, nsMark: nsMark,
		run: run, attrViols: attrViols, textViols: textViols,
		childViols: childViols, textBuf: textBuf}
}

// nsBinding is one in-scope namespace declaration. name is "xmlns" for the
// default namespace and the prefix otherwise, the keys parseQName looks up.
type nsBinding struct {
	name string
	uri  string
}

// machine is one validation pass of the frame machine.
type machine struct {
	v   *Validator
	ids *idTable
	res Result

	// frames is the open-element stack. Its first frame is the entry
	// frame, the element the run started at, whose path is base; path
	// renders any other frame's path from the steps below it.
	frames    []*frame
	base      string
	free      []*frame // recycled frames; popped elements return here
	skipDepth int      // >0: inside an unvalidated subtree (token stream)
	rootDone  bool

	// events, when non-nil, receives the structural callbacks; val is the
	// slot CloseElement's value is handed over in, allocated for the
	// first one, and raw buffers the token stream's skipped subtree when
	// it is observer-visible (a wildcard match with no declaration)
	// rather than an invalid one.
	events StreamEvents
	val    *xsdtypes.Value
	raw    *fragment

	ns []nsBinding

	// tok is the start tag the DOM replay hands to the machine, reused,
	// attribute slice included, for every element.
	tok xmlparser.Token
	// sub replays the token stream's buffered subtrees.
	sub *machine

	// workers, when > 1, makes the DOM replay validate every level with
	// at least ParallelMinFanout element children on that many workers
	// (parallel.go); collided records that a parallel level's IDs
	// collided with the document's, which voids the run.
	workers  int
	collided bool
}

func (v *Validator) newMachine() *machine {
	return &machine{v: v, ids: &idTable{off: v.opts.SkipIDChecks}}
}

func (m *machine) top() *frame {
	if len(m.frames) == 0 {
		return nil
	}
	return m.frames[len(m.frames)-1]
}

// newFrame pushes a recycled or fresh frame for a child at step at, or
// for the entry element when the stack is empty.
func (m *machine) newFrame(at step, decl *xsd.ElementDecl, nsMark int) *frame {
	var f *frame
	if n := len(m.free); n > 0 {
		f = m.free[n-1]
		m.free = m.free[:n-1]
		f.reset(at, decl, nsMark)
	} else {
		f = &frame{at: at, decl: decl, nsMark: nsMark}
	}
	m.frames = append(m.frames, f)
	return f
}

// path renders the path of f, an open frame: the entry frame's base path
// and one step per frame below it down to f. Paths are built only for
// what needs one: a violation, an ID or IDREF, an identity-constrained
// element, a subtree handed to another machine.
func (m *machine) path(f *frame) string {
	i := len(m.frames) - 1
	for i >= 0 && m.frames[i] != f {
		i--
	}
	switch {
	case i < 0:
		panic("validator: path of a frame that is not open")
	case i == 0:
		return m.base
	}
	var buf [pathBuf]byte
	b := append(buf[:0], m.base...)
	for _, g := range m.frames[1 : i+1] {
		b = g.at.appendTo(b)
	}
	return string(b)
}

// recycle returns a popped frame to the free list. Its buffered violations
// must already have been delivered (deliver copies them out). Recycling a
// frame twice would hand its contentmodel.Run to two live frames at once —
// exactly the interleaving the Run's single-owner contract forbids — so a
// double recycle panics here instead of corrupting a later match.
func (m *machine) recycle(f *frame) {
	if f.pooled {
		panic("validator: frame recycled twice")
	}
	f.pooled = true
	m.free = append(m.free, f)
}

// token dispatches one parse event.
func (m *machine) token(tok *xmlparser.Token) {
	if m.skipDepth > 0 {
		if m.raw != nil && m.raw.add(tok) {
			m.events.RawElement(m.raw.root)
			m.raw.release()
			m.raw = nil
		}
		switch tok.Kind {
		case xmlparser.KindStartElement:
			m.skipDepth++
		case xmlparser.KindEndElement:
			m.skipDepth--
		}
		return
	}
	if f := m.top(); f != nil && f.mode == fmFallback {
		if f.fb.add(tok) {
			m.completeFallback(f)
		}
		return
	}
	switch tok.Kind {
	case xmlparser.KindStartElement:
		if !m.startElement(tok, nil) {
			m.skipDepth = 1
		}
	case xmlparser.KindEndElement:
		m.endElement()
	case xmlparser.KindText:
		if data := tok.Bytes(); len(data) > 0 { // dom.Parse drops empty text nodes
			text(m, data, false)
		}
	case xmlparser.KindCData:
		text(m, tok.Bytes(), true)
	case xmlparser.KindComment, xmlparser.KindProcInst:
		m.misc()
	}
}

// bind pushes the namespace declarations of a start tag and returns the
// stack mark to restore when the element ends.
func (m *machine) bind(tok *xmlparser.Token) int {
	mark := len(m.ns)
	for i := range tok.Attrs {
		if a := &tok.Attrs[i]; a.IsNamespaceDecl {
			m.ns = append(m.ns, nsBinding{name: a.Name.Local, uri: a.Value})
		}
	}
	return mark
}

// startElement opens the element tok starts (el on the DOM replay, nil on
// the token stream) and reports whether it pushed a frame for it. When it
// did not, the element's subtree is not validated and the driver skips it.
func (m *machine) startElement(tok *xmlparser.Token, el *dom.Element) bool {
	nsMark := m.bind(tok)
	parent := m.top()
	switch {
	case parent == nil && !m.rootDone:
		// The token stream's document element (the replay opens its own).
		if decl, fail := m.v.rootDecl(tok.Name); decl == nil {
			report(&m.res.Violations, "/"+tok.Name.Qualified(), fail)
			m.rootDone = true
		} else {
			m.base = "/" + tok.Name.Qualified()
			m.pushFrame(tok, nil, decl, step{}, nsMark, false)
			return true
		}
	case parent == nil: // an element after the document element
	case parent.mode == fmModel:
		if parent.failed {
			break
		}
		var leaf *contentmodel.Leaf
		if parent.interp {
			leaf, parent.leaves = parent.leaves[0], parent.leaves[1:]
		} else {
			var merr *contentmodel.MatchError
			if leaf, merr = parent.run.Step(contentmodel.Symbol{Space: tok.Name.Space, Local: tok.Name.Local}); merr != nil {
				m.rejectContent(parent, m.path(parent)+"/"+tok.Name.Qualified(), merr.Error())
				break
			}
		}
		at := parent.counts.next(tok.Name)
		decl, wild, err := m.v.childDecl(leaf, xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local})
		if err != nil {
			report(&parent.childViols, at.under(m.path(parent)), err.Error())
		} else if decl != nil {
			m.pushFrame(tok, el, decl, at, nsMark, wild)
			return true
		} else if wild && m.events != nil {
			// Deliver the unvalidated subtree raw: the replay has it at
			// hand, the token stream buffers it while skipping it.
			if el != nil {
				m.events.RawElement(el)
			} else {
				m.raw = new(fragment)
				m.raw.start(tok)
			}
		}
	case parent.mode == fmSimple || parent.mode == fmCSimple:
		parent.sawElemChild = true
	case parent.mode == fmCEmpty:
		m.setFailed(parent, fmt.Sprintf("element <%s> is not allowed in empty content", tok.Name.Qualified()))
	case parent.mode == fmNilled:
		m.setFailed(parent, msgNilled)
	}
	m.ns = m.ns[:nsMark]
	return false
}

// setFailed records the first content violation of f, an open frame.
func (m *machine) setFailed(f *frame, msg string) {
	if !f.failed {
		f.failed = true
		f.contentViol = &Violation{Path: m.path(f), Msg: msg}
	}
}

// lookupNS finds the innermost binding of prefix ("xmlns" for the default
// namespace).
func (m *machine) lookupNS(prefix string) (string, bool) {
	for i := len(m.ns) - 1; i >= 0; i-- {
		if m.ns[i].name == prefix {
			return m.ns[i].uri, true
		}
	}
	return "", false
}

// pushFrame opens the element's frame at step at (the entry frame's at is
// unused): it applies the governing-type rule, checks the attributes and
// sets the frame up for its content. el is the element on the DOM replay
// and nil on the token stream; wild marks an element admitted by a
// content-model wildcard.
func (m *machine) pushFrame(tok *xmlparser.Token, el *dom.Element, decl *xsd.ElementDecl, at step, nsMark int, wild bool) {
	f := m.newFrame(at, decl, nsMark)
	f.el, f.wild = el, wild
	xsiType, _ := tok.Attr(xsd.XSINamespace, "type")
	xsiNil, _ := tok.Attr(xsd.XSINamespace, "nil")
	typ, nilled, fail := m.v.governingType(decl, xsiType, xsiNil, m.lookupNS)
	if fail != "" {
		f.mode = fmDead
		m.setFailed(f, fail)
		return
	}
	if nilled {
		f.mode = fmNilled
		m.announce(f, typ, tok, true)
		return
	}
	ct, _ := typ.(*xsd.ComplexType)
	var mt contentmodel.Matcher
	if ct != nil && (ct.Kind == xsd.ContentElementOnly || ct.Kind == xsd.ContentMixed) {
		mt = ct.Matcher(m.v.schema)
	}
	// The token stream buffers what events alone cannot decide: identity
	// constraints and interpreted content models.
	if _, glushkov := mt.(*contentmodel.Glushkov); el == nil && (len(decl.Constraints) > 0 || mt != nil && !glushkov) {
		m.startFallback(f, tok)
		return
	}
	m.attributes(typ, len(tok.Attrs), func(i int) (xmlparser.Name, string) {
		return tok.Attrs[i].Name, tok.Attrs[i].Value
	}, f, &f.attrViols)
	f.ids = m.ids.mark()
	switch {
	case ct == nil:
		f.mode = fmSimple
		f.st = typ.(*xsd.SimpleType)
	case ct.Kind == xsd.ContentSimple:
		f.mode = fmCSimple
		f.st = ct.SimpleContentType
	case ct.Kind == xsd.ContentEmpty:
		f.mode = fmCEmpty
	case mt != nil:
		m.openModel(f, mt, ct.Kind == xsd.ContentMixed)
	}
	m.announce(f, typ, tok, false)
}

// openModel sets f up to match its element-only or mixed content against
// mt. A Glushkov automaton is stepped as the children open; an
// interpreted model, which is not incremental, matches the replayed
// element's whole child sequence now.
func (m *machine) openModel(f *frame, mt contentmodel.Matcher, mixed bool) {
	f.mode = fmModel
	f.mixed = mixed
	if g, ok := mt.(*contentmodel.Glushkov); ok {
		if f.run != nil {
			f.run.Reset(g)
		} else {
			f.run = g.Start()
		}
		return
	}
	children := f.el.ChildElements()
	symbols := make([]contentmodel.Symbol, len(children))
	for i, c := range children {
		symbols[i] = contentmodel.Symbol{Space: c.NamespaceURI(), Local: c.LocalName()}
	}
	f.interp = true
	var merr *contentmodel.MatchError
	if f.leaves, merr = mt.Match(symbols); merr != nil {
		loc := m.path(f)
		if merr.Index < len(children) {
			loc = childPath(loc, children[merr.Index])
		}
		m.rejectContent(f, loc, merr.Error())
	}
}

// announce delivers OpenElement for a frame that passed the prologue.
func (m *machine) announce(f *frame, typ xsd.Type, tok *xmlparser.Token, nilled bool) {
	if m.events == nil {
		return
	}
	f.announced = true
	m.events.OpenElement(f.decl, typ, tok, nilled, f.wild)
}

// text consumes the character data of a text node, or of a CDATA section
// when cdata is set. The token stream passes the decoder's byte view and
// the DOM replay the node's string, so neither is copied to be checked.
func text[T string | []byte](m *machine, data T, cdata bool) {
	f := m.top()
	if f == nil {
		return // document-level whitespace or misc
	}
	switch f.mode {
	case fmModel:
		if f.mixed {
			if m.events != nil {
				m.events.MixedText(string(data))
			}
			return
		}
		if cdata {
			report(&f.textViols, m.path(f), "character data is not allowed in element-only content")
		} else if !blank(data) {
			report(&f.textViols, m.path(f), fmt.Sprintf("character data %q is not allowed in element-only content", snippet(string(data))))
		}
	case fmSimple, fmCSimple:
		f.textBuf = append(f.textBuf, data...)
	case fmCEmpty:
		if cdata || !blank(data) {
			m.setFailed(f, "character data is not allowed in empty content")
		}
	case fmNilled:
		m.setFailed(f, msgNilled)
	}
}

// blank reports whether s is all white space, without copying it.
func blank[T string | []byte](s T) bool {
	if b, ok := any(s).([]byte); ok {
		return len(bytes.TrimSpace(b)) == 0
	}
	return strings.TrimSpace(string(s)) == ""
}

// misc consumes a comment or processing instruction. They are child nodes,
// so they violate only the "nilled element must be empty" rule.
func (m *machine) misc() {
	if f := m.top(); f != nil && f.mode == fmNilled {
		m.setFailed(f, msgNilled)
	}
}

func (m *machine) endElement() {
	n := len(m.frames)
	if n == 0 {
		return
	}
	f := m.frames[n-1]
	viols := m.closeFrame(f)
	if f.mode < fmNilled && f.decl != nil && len(f.decl.Constraints) > 0 {
		// Only the DOM replay closes a constrained frame: the token
		// stream buffers it (fmFallback) and replays the buffer.
		checkIdentityConstraints(f.el, f.decl, m.path(f), &viols)
	}
	m.frames = m.frames[:n-1]
	m.ns = m.ns[:f.nsMark]
	m.deliver(viols)
	if f.announced {
		m.events.CloseElement(f.evVal)
	}
	m.recycle(f)
}

// deliver routes a closed frame's violations to its parent's buffer, or
// to the result when the outermost frame closes.
func (m *machine) deliver(viols []Violation) {
	if p := m.top(); p != nil {
		p.childViols = append(p.childViols, viols...)
		return
	}
	m.rootDone = true
	for _, v := range viols {
		report(&m.res.Violations, v.Path, v.Msg)
	}
}

// rejectContent records a content-model failure at path. A rejected
// element's verdict is the match error alone, so the children's buffered
// violations are dropped and their IDs and IDREFs rolled back.
func (m *machine) rejectContent(f *frame, path, msg string) {
	f.failed = true
	f.contentViol = &Violation{Path: path, Msg: msg}
	f.childViols = nil
	m.ids.rollback(f.ids)
}

// closeFrame assembles the violations of f, the top frame: attributes,
// then text, then the content failure or the children's.
func (m *machine) closeFrame(f *frame) []Violation {
	switch f.mode {
	case fmModel:
		if !f.failed && !f.interp {
			if merr := f.run.End(); merr != nil {
				// Premature end: reported against the element itself.
				m.rejectContent(f, m.path(f), merr.Error())
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
		val, ok := m.simpleText(f.st, f.decl, f, string(f.textBuf), &viols)
		m.announceValue(f, val, ok)
		return append(viols, f.attrViols...)
	case fmCSimple:
		viols := f.attrViols
		val, ok := m.contentText(f.st, f, string(f.textBuf), &viols)
		m.announceValue(f, val, ok)
		return viols
	default: // fmCEmpty, fmNilled, fmDead
		viols := f.attrViols
		if f.contentViol != nil {
			viols = append(viols, *f.contentViol)
		}
		return viols
	}
}

// announceValue hands a simple element's parsed value to CloseElement
// through the machine's one value slot, so nothing escapes per element.
func (m *machine) announceValue(f *frame, val xsdtypes.Value, ok bool) {
	if ok && f.announced {
		if m.val == nil {
			m.val = new(xsdtypes.Value)
		}
		*m.val = val
		f.evVal = m.val
	}
}

// startFallback begins buffering the element's subtree into a private DOM
// fragment for replay.
func (m *machine) startFallback(f *frame, tok *xmlparser.Token) {
	f.mode = fmFallback
	f.fb.start(tok)
	// Graft the in-scope namespace bindings onto the buffered root so
	// xsi:type prefixes resolve as they would in the full tree. Innermost bindings win; locally declared ones are already set.
	root := f.fb.root
	for i := len(m.ns) - 1; i >= 0; i-- {
		b := m.ns[i]
		if root.HasAttributeNS(xmlparser.XMLNSNamespace, b.name) {
			continue
		}
		q := "xmlns"
		if b.name != "xmlns" {
			q = "xmlns:" + b.name
		}
		root.SetAttributeNS(xmlparser.XMLNSNamespace, q, b.uri)
	}
}

// completeFallback replays the buffered subtree through a sub-machine
// that shares the stream's ID table, so rollback covers its IDs, and its
// observer, so the subtree's elements reach it as ordinary events.
func (m *machine) completeFallback(f *frame) {
	path := m.path(f)
	m.frames = m.frames[:len(m.frames)-1]
	m.ns = m.ns[:f.nsMark]
	if m.sub == nil {
		m.sub = &machine{v: m.v, ids: m.ids, events: m.events}
	}
	sub := m.sub
	sub.res.Violations = sub.res.Violations[:0]
	sub.enter(f.fb.root, f.decl, f.wild, nil, path)
	m.deliver(sub.res.Violations)
	// The buffered subtree is private to this frame and the replay above
	// only keeps strings, so its pooled nodes can be recycled now.
	f.fb.release()
	m.recycle(f)
}

// fragment is a subtree the token stream buffers into a private pooled
// DOM, mapping tokens to nodes the way dom.Parse does.
type fragment struct {
	doc   *dom.Document
	root  *dom.Element
	cur   dom.Node
	depth int
}

// start begins a fragment rooted at the element tok starts.
func (b *fragment) start(tok *xmlparser.Token) {
	b.doc = dom.NewPooledDocument()
	b.root = b.element(tok)
	b.doc.AppendChild(b.root)
	b.cur, b.depth = b.root, 1
}

// element creates the element a start tag describes.
func (b *fragment) element(tok *xmlparser.Token) *dom.Element {
	e := b.doc.CreateElementNS(tok.Name.Space, tok.Name.Qualified())
	for i := range tok.Attrs {
		a := &tok.Attrs[i]
		e.SetAttributeNS(a.Name.Space, a.Name.Qualified(), a.Value)
	}
	return e
}

// add appends one token and reports whether it closed the root.
func (b *fragment) add(tok *xmlparser.Token) bool {
	switch tok.Kind {
	case xmlparser.KindStartElement:
		e := b.element(tok)
		b.cur.AppendChild(e)
		b.cur = e
		b.depth++
	case xmlparser.KindEndElement:
		if b.depth--; b.depth == 0 {
			return true
		}
		b.cur = b.cur.ParentNode()
	case xmlparser.KindText:
		if tok.Data() != "" {
			b.cur.AppendChild(b.doc.CreateTextNode(tok.Data()))
		}
	case xmlparser.KindCData:
		b.cur.AppendChild(b.doc.CreateCDATASection(tok.Data()))
	case xmlparser.KindComment:
		b.cur.AppendChild(b.doc.CreateComment(tok.Data()))
	case xmlparser.KindProcInst:
		b.cur.AppendChild(b.doc.CreateProcessingInstruction(tok.Target, tok.Data()))
	}
	return false
}

// release recycles the fragment's pooled nodes.
func (b *fragment) release() {
	b.doc.Release()
	*b = fragment{}
}
