package validator

import (
	"fmt"
	"strings"

	"repro/internal/contentmodel"
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
	// Parallelism bounds the worker pool used by ValidateBatch. Zero or
	// negative means runtime.GOMAXPROCS(0). It has no effect on the
	// single-document entry points.
	Parallelism int
	// ElementObserver, when non-nil, is invoked with the governing
	// declaration of every element the walk visits. It exists for
	// instrumentation — codegen's instance-corpus pruning pass uses it to
	// record which declarations a sample document set reaches — and has no
	// effect on verdicts.
	ElementObserver func(decl *xsd.ElementDecl)
}

// Validator validates documents against one schema.
//
// A Validator is safe for concurrent use: any number of goroutines may
// call ValidateDocument, ValidateElement and ValidateBatch on one shared
// instance. All per-run state lives in a private run value; the compiled
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
	return v.newRun().document(doc)
}

// ValidateElement validates a subtree against a specific declaration.
func (v *Validator) ValidateElement(el *dom.Element, decl *xsd.ElementDecl) *Result {
	r := v.newRun()
	r.element(el, decl, "/"+el.TagName())
	r.ids.resolve(&r.res.Violations)
	return &r.res
}

// run carries one pass of the DOM walk.
type run struct {
	checker
	res Result
	// parWorkers, when > 1, makes every elementContent level with at
	// least ParallelMinFanout children fan out to that many workers;
	// cleared while a pool is running so splits never nest.
	parWorkers int
}

func (v *Validator) newRun() *run { return &run{checker: newChecker(v, false)} }

func (r *run) violate(path, msg string) { report(&r.res.Violations, path, msg) }

// document validates doc's root against its global declaration, then
// resolves the IDREFs.
func (r *run) document(doc *dom.Document) *Result {
	root := doc.DocumentElement()
	if root == nil {
		r.violate("/", "document has no root element")
		return &r.res
	}
	if decl, fail := r.v.rootDecl(root.Name()); decl == nil {
		r.violate("/"+root.TagName(), fail)
	} else {
		r.element(root, decl, "/"+root.TagName())
		r.ids.resolve(&r.res.Violations)
	}
	return &r.res
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

// element validates el against its governing declaration.
func (r *run) element(el *dom.Element, decl *xsd.ElementDecl, path string) {
	if obs := r.v.opts.ElementObserver; obs != nil {
		obs(decl)
	}
	if len(r.res.Violations) >= maxViolations {
		return
	}
	typ, nilled, fail := r.v.governingType(decl,
		el.GetAttributeNS(xsd.XSINamespace, "type"), el.GetAttributeNS(xsd.XSINamespace, "nil"),
		func(prefix string) (string, bool) { return lookupNS(el, prefix) })
	if fail != "" {
		r.violate(path, fail)
		return
	}
	if nilled {
		if len(el.ChildNodes()) > 0 {
			r.violate(path, msgNilled)
		}
		return
	}
	attrs := el.Attributes()
	at := func(i int) (xmlparser.Name, string) { return attrs[i].Name(), attrs[i].Value() }
	switch t := typ.(type) {
	case *xsd.SimpleType:
		r.simpleText(t, decl, hasElementChild(el), el.TextContent(), path, &r.res.Violations)
		r.attributes(t, len(attrs), at, path, &r.res.Violations)
	case *xsd.ComplexType:
		r.attributes(t, len(attrs), at, path, &r.res.Violations)
		r.content(el, t, path)
	}
	r.checkIdentityConstraints(el, decl, path)
}

// lookupNS finds the namespace bound to prefix ("xmlns" for the default
// namespace) on el or its nearest ancestor that declares it.
func lookupNS(el *dom.Element, prefix string) (string, bool) {
	for n := dom.Node(el); n != nil; n = n.ParentNode() {
		if e, ok := n.(*dom.Element); ok && e.HasAttributeNS(xmlparser.XMLNSNamespace, prefix) {
			return e.GetAttributeNS(xmlparser.XMLNSNamespace, prefix), true
		}
	}
	return "", false
}

func hasElementChild(el *dom.Element) bool {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			return true
		}
	}
	return false
}

// content validates the content of an element governed by a complex type.
func (r *run) content(el *dom.Element, ct *xsd.ComplexType, path string) {
	switch ct.Kind {
	case xsd.ContentSimple:
		r.contentText(ct.SimpleContentType, hasElementChild(el), el.TextContent(), path, &r.res.Violations)
	case xsd.ContentEmpty:
		for _, c := range el.ChildNodes() {
			switch x := c.(type) {
			case *dom.Element:
				r.violate(path, fmt.Sprintf("element <%s> is not allowed in empty content", x.TagName()))
				return
			case *dom.Text:
				if strings.TrimSpace(x.Data) != "" {
					r.violate(path, "character data is not allowed in empty content")
					return
				}
			case *dom.CDATASection:
				r.violate(path, "character data is not allowed in empty content")
				return
			}
		}
	case xsd.ContentElementOnly, xsd.ContentMixed:
		r.elementContent(el, ct, path)
	}
}

// elementContent validates children against the content model.
func (r *run) elementContent(el *dom.Element, ct *xsd.ComplexType, path string) {
	var symbols []contentmodel.Symbol
	var children []*dom.Element
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			symbols = append(symbols, contentmodel.Symbol{Space: x.NamespaceURI(), Local: x.LocalName()})
			children = append(children, x)
		case *dom.Text:
			if ct.Kind != xsd.ContentMixed && strings.TrimSpace(x.Data) != "" {
				r.violate(path, fmt.Sprintf("character data %q is not allowed in element-only content", snippet(x.Data)))
			}
		case *dom.CDATASection:
			if ct.Kind != xsd.ContentMixed {
				r.violate(path, "character data is not allowed in element-only content")
			}
		}
	}
	leaves, merr := ct.Matcher(r.v.schema).Match(symbols)
	if merr != nil {
		loc := path
		if merr.Index < len(children) {
			loc = childPath(path, children[merr.Index])
		}
		r.violate(loc, merr.Error())
		return
	}
	if w := r.parWorkers; w > 1 && len(children) >= ParallelMinFanout {
		// Split this level across the pool. The flag is cleared while the
		// workers run (sub-runs never nest pools) and restored after the
		// join, so every sufficiently wide level splits — the walk descends
		// sequentially through narrow levels to find the fan-out.
		r.parWorkers = 0
		handled := r.parallelChildren(children, leaves, path, w)
		r.parWorkers = w
		if handled {
			return
		}
	}
	var counts childCounts
	for i, child := range children {
		r.child(child, leaves[i], counts.path(path, child.TagName()))
	}
}

// child validates one child element the content model matched to leaf.
func (r *run) child(el *dom.Element, leaf *contentmodel.Leaf, path string) {
	decl, _, err := r.v.childDecl(leaf, xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()})
	if err != nil {
		r.violate(path, err.Error())
	} else if decl != nil {
		r.element(el, decl, path)
	}
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
