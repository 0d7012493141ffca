package validator

import (
	"fmt"
	"strings"

	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// Violation is one validity error with its document location.
type Violation struct {
	// Path is an XPath-like location of the offending node, with 1-based
	// positional predicates for repeated siblings
	// (/purchaseOrder/items/item[2]) and an @name step for attributes.
	Path string
	// Msg is the human-readable description of the violation, phrased
	// against the schema component that was not satisfied.
	Msg string
}

// Error formats the violation.
func (v Violation) Error() string { return v.Path + ": " + v.Msg }

// Result collects the violations of one validation run. A Result is
// owned by its caller; the Validator keeps no reference to it after
// returning, so results from concurrent runs never share state.
type Result struct {
	// Violations are the collected validity errors in document order,
	// capped at maxViolations per run. Empty means the document is valid.
	Violations []Violation
}

// OK reports whether the document was valid.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a valid document and an error summarizing the
// violations otherwise.
func (r *Result) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		msgs = append(msgs, v.Error())
	}
	return fmt.Errorf("document is invalid:\n  %s", strings.Join(msgs, "\n  "))
}

// maxViolations bounds error collection.
const maxViolations = 100

// Options tunes validation. The zero value is the default configuration:
// full ID/IDREF checking and a GOMAXPROCS-sized batch worker pool.
type Options struct {
	// SkipIDChecks disables document-level ID uniqueness and IDREF
	// resolution (the paper-excluded extension); structural and
	// simple-type checking is unaffected.
	SkipIDChecks bool
	// Parallelism bounds the worker pool used by ValidateBatch and
	// StreamValidator.ValidateBatchContext. Zero or negative means
	// runtime.GOMAXPROCS(0). It has no effect on the single-document
	// entry points.
	Parallelism int
}

// Validator validates documents against one schema.
//
// A Validator is safe for concurrent use: any number of goroutines may
// call ValidateDocument, ValidateElement and ValidateBatch on one shared
// instance. All per-run state lives in a private machine; the compiled
// content models belong to the schema (xsd.ComplexType.Matcher), built
// once per type and shared by every Validator and walk over it. The
// documents being validated are only read, never written — but callers
// must not mutate a document concurrently with its validation.
type Validator struct {
	schema *xsd.Schema
	opts   Options
}

// New creates a validator for the schema. Passing nil opts selects the
// defaults (see Options). The schema must already be resolved and must
// not be mutated for the lifetime of the Validator.
func New(schema *xsd.Schema, opts *Options) *Validator {
	v := &Validator{schema: schema}
	if opts != nil {
		v.opts = *opts
	}
	return v
}

// CompiledModels reports how many content models the schema has compiled
// so far (xsd.Schema.CompiledModels). Repeated or concurrent validation
// leaves it bounded by the number of complex types the documents use.
func (v *Validator) CompiledModels() int { return v.schema.CompiledModels() }

// ValidateDocument validates a whole document: the root element must match
// a global element declaration.
func (v *Validator) ValidateDocument(doc *dom.Document) *Result {
	return v.ValidateDocumentEvents(doc, nil)
}

// ValidateElement validates a subtree against a specific declaration.
func (v *Validator) ValidateElement(el *dom.Element, decl *xsd.ElementDecl) *Result {
	return v.ValidateElementEvents(el, decl, false, nil)
}

// document validates doc's root against its global declaration, then
// resolves the IDREFs.
func (m *machine) document(doc *dom.Document) *Result {
	root := doc.DocumentElement()
	if root == nil {
		report(&m.res.Violations, "/", "document has no root element")
		return &m.res
	}
	if decl, fail := m.v.rootDecl(root.Name()); decl == nil {
		report(&m.res.Violations, "/"+root.TagName(), fail)
	} else {
		m.enter(root, decl, false, nil, "/"+root.TagName())
		m.ids.resolve(&m.res.Violations)
	}
	return &m.res
}

// rootDecl returns the global declaration for a root element, or the
// violation when there is none.
func (v *Validator) rootDecl(n xmlparser.Name) (*xsd.ElementDecl, string) {
	name := xsd.QName{Space: n.Space, Local: n.Local}
	if decl, ok := v.schema.LookupElement(name); ok {
		return decl, ""
	}
	return nil, fmt.Sprintf("no global declaration for root element %s", name)
}

// enter validates el against decl at path: the one way a DOM tree enters
// the frame machine. It seeds the namespace stack with the bindings el
// inherits from its ancestors, opens el's frame as the entry frame with
// path as its base, replays the subtree and closes the frame, whose
// violations reach m.res. wild marks el as wildcard-admitted for the
// observer. A nil decl opens a content-only frame for ct's model instead
// (Sink.ElementContent).
func (m *machine) enter(el *dom.Element, decl *xsd.ElementDecl, wild bool, ct *xsd.ComplexType, path string) {
	m.ns = inherited(m.ns[:0], el)
	m.base = path
	tok := m.startToken(el)
	nsMark := m.bind(tok)
	if decl != nil {
		m.pushFrame(tok, el, decl, step{}, nsMark, wild)
	} else {
		f := m.newFrame(step{}, nil, nsMark)
		f.el = el
		f.ids = m.ids.mark()
		m.openModel(f, ct.Matcher(m.v.schema), ct.Kind == xsd.ContentMixed)
	}
	m.replay(el)
	m.endElement()
}

// inherited appends the namespace bindings el inherits from its
// ancestors, outermost first, so lookupNS finds the innermost.
func inherited(ns []nsBinding, el *dom.Element) []nsBinding {
	p, ok := el.ParentNode().(*dom.Element)
	if !ok {
		return ns
	}
	ns = inherited(ns, p)
	for _, a := range p.Attributes() {
		if n := a.Name(); n.Space == xmlparser.XMLNSNamespace {
			ns = append(ns, nsBinding{name: n.Local, uri: a.Value()})
		}
	}
	return ns
}

// replay feeds the children of el, whose frame is open, to the machine as
// events: the DOM counterpart of the token loop. A child the machine opens
// no frame for is skipped without being walked.
func (m *machine) replay(el *dom.Element) {
	fanned := m.workers > 1 && m.fanOut(el)
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			if !fanned && m.startElement(m.startToken(x), x) {
				m.replay(x)
				m.endElement()
			}
		case *dom.Text:
			text(m, x.Data, false)
		case *dom.CDATASection:
			text(m, x.Data, true)
		default: // comments and processing instructions
			m.misc()
		}
	}
}

// startToken fills the machine's reusable token with el's start tag.
func (m *machine) startToken(el *dom.Element) *xmlparser.Token {
	tok := &m.tok
	tok.Kind = xmlparser.KindStartElement
	tok.Name = el.Name()
	tok.Attrs = tok.Attrs[:0]
	for _, a := range el.Attributes() {
		n := a.Name()
		tok.Attrs = append(tok.Attrs, xmlparser.Attr{Name: n, Value: a.Value(), IsNamespaceDecl: n.Space == xmlparser.XMLNSNamespace})
	}
	return tok
}

// childPath appends a child step to a path.
func childPath(path string, child *dom.Element) string {
	return path + "/" + child.TagName()
}

// snippet truncates text for error messages.
func snippet(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 20 {
		return s[:20] + "..."
	}
	return s
}

// ValidateBytes parses and validates a serialized document in one step —
// the "marshalling" baseline of the paper's §7 related-work discussion.
func ValidateBytes(schema *xsd.Schema, src []byte) (*dom.Document, *Result) {
	doc, err := dom.Parse(src)
	if err != nil {
		res := &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}
		return nil, res
	}
	return doc, New(schema, nil).ValidateDocument(doc)
}
