package validator

// The element rules the frame machine applies (see "One walk" in the
// package documentation).

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// report appends a violation to *dst unless it already holds
// maxViolations. Capping a buffer this way never changes the first
// maxViolations of a concatenation that includes it, so the stream's
// per-element buffers report exactly what appending to the result would.
func report(dst *[]Violation, path, msg string) {
	if len(*dst) < maxViolations {
		*dst = append(*dst, Violation{Path: path, Msg: msg})
	}
}

// msgNilled is the violation for any content inside a nilled element.
const msgNilled = "nilled element must be empty"

// governingType applies the instance overrides to decl: xsi:type, which
// must name a type derived from the declared one, the abstract-type gate
// and xsi:nil. lookup resolves a namespace prefix ("xmlns" for the default
// namespace) in the element's scope. A non-empty fail is the element's
// only violation; nilled reports xsi:nil="true" on a nillable element.
func (v *Validator) governingType(decl *xsd.ElementDecl, xsiType, xsiNil string, lookup func(prefix string) (string, bool)) (typ xsd.Type, nilled bool, fail string) {
	typ = decl.Type
	if xsiType != "" {
		q, err := parseQName(xsiType, lookup)
		if err != nil {
			return nil, false, fmt.Sprintf("bad xsi:type %q: %v", xsiType, err)
		}
		override, ok := v.schema.LookupType(q)
		if !ok {
			return nil, false, fmt.Sprintf("xsi:type %s names an unknown type", q)
		}
		if !derivesFromType(override, typ) {
			return nil, false, fmt.Sprintf("xsi:type %s does not derive from the declared type", q)
		}
		typ = override
	}
	if ct, ok := typ.(*xsd.ComplexType); ok && ct.Abstract {
		return nil, false, fmt.Sprintf("type %s is abstract; an xsi:type of a concrete derived type is required", ct.Name)
	}
	if xsiNil != "" {
		if !decl.Nillable {
			return nil, false, "xsi:nil on a non-nillable element"
		}
		nilled = xsiNil == "true" || xsiNil == "1"
	}
	return typ, nilled, ""
}

// derivesFromType checks the derivation relation across simple/complex.
func derivesFromType(t, anc xsd.Type) bool {
	if t == anc {
		return true
	}
	switch x := t.(type) {
	case *xsd.ComplexType:
		return x.DerivesFrom(anc)
	case *xsd.SimpleType:
		if a, ok := anc.(*xsd.SimpleType); ok {
			return x.DerivesFrom(a)
		}
	}
	return false
}

// parseQName resolves a QName-valued attribute of an instance element;
// lookup maps a prefix ("xmlns" for the default namespace) to the URI
// bound to it in the element's scope.
func parseQName(lexical string, lookup func(prefix string) (string, bool)) (xsd.QName, error) {
	lexical = strings.TrimSpace(lexical)
	prefix, local := "", lexical
	if i := strings.IndexByte(lexical, ':'); i >= 0 {
		prefix, local = lexical[:i], lexical[i+1:]
	}
	if !xmlparser.IsNCName(local) || (prefix != "" && !xmlparser.IsNCName(prefix)) {
		return xsd.QName{}, fmt.Errorf("bad QName")
	}
	if prefix == "xml" {
		return xsd.QName{Space: xmlparser.XMLNamespace, Local: local}, nil
	}
	key := prefix
	if key == "" {
		key = "xmlns"
	}
	if uri, ok := lookup(key); ok {
		return xsd.QName{Space: uri, Local: local}, nil
	}
	if prefix != "" {
		return xsd.QName{}, fmt.Errorf("undeclared prefix %q", prefix)
	}
	return xsd.QName{Local: local}, nil
}

// isMetaName reports whether an attribute is namespace, xsi: or xml:
// machinery, which attribute checks ignore.
func isMetaName(n xmlparser.Name) bool {
	return n.Space == xmlparser.XMLNSNamespace || n.Space == xsd.XSINamespace || n.Space == xmlparser.XMLNamespace
}

// attributes checks the attributes of f's element against its governing
// type; n and at enumerate them in document order. A simple type admits
// none. A complex type requires each to be declared (or admitted by its
// wildcard), to parse and to equal its fixed value, and every required
// attribute to be present. ID-family values go to the ID table under the
// attribute's path.
func (m *machine) attributes(typ xsd.Type, n int, at func(int) (xmlparser.Name, string), f *frame, out *[]Violation) {
	ct, _ := typ.(*xsd.ComplexType)
	for i := 0; i < n; i++ {
		name, value := at(i)
		if isMetaName(name) {
			continue
		}
		if ct == nil {
			report(out, m.path(f), fmt.Sprintf("attribute %q is not allowed on a simple-type element", name.Qualified()))
			continue
		}
		use := ct.FindAttributeUse(xsd.QName{Space: name.Space, Local: name.Local})
		if use == nil || use.Prohibited {
			if ct.AttrWildcard == nil || !ct.AttrWildcard.Admits(name.Space) {
				report(out, m.path(f), fmt.Sprintf("attribute %q is not declared for this element", name.Qualified()))
			}
			continue
		}
		val, err := use.Decl.Type.Parse(value)
		if err != nil {
			report(out, m.path(f), fmt.Sprintf("attribute %q: %v", name.Qualified(), err))
			continue
		}
		if want := use.FixedValue(); want != nil && !val.Equal(*want) {
			report(out, m.path(f), fmt.Sprintf("attribute %q must have the fixed value %q", name.Qualified(), *use.Fixed))
		}
		if kind := m.ids.kind(use.Decl.Type); kind != "" {
			m.ids.add(kind, value, m.path(f)+"/@"+name.Qualified(), out)
		}
	}
	if ct == nil {
		return
	}
	for _, use := range ct.AttributeUses {
		if use.Required && !use.Prohibited && !hasAttr(n, at, use.Decl.Name) {
			report(out, m.path(f), fmt.Sprintf("required attribute %q is missing", use.Decl.Name.Local))
		}
	}
}

// hasAttr reports whether a non-meta attribute named q is present.
func hasAttr(n int, at func(int) (xmlparser.Name, string), q xsd.QName) bool {
	for i := 0; i < n; i++ {
		if name, _ := at(i); name.Local == q.Local && name.Space == q.Space && !isMetaName(name) {
			return true
		}
	}
	return false
}

// simpleText checks the content of f, a simple-typed element: no child
// elements; the declaration's default or fixed value stands in for empty
// text; the value must parse and equal the fixed value; ID-family values
// go to the ID table. ok reports a parsed value. The fixed value is
// parsed per occurrence, because xsi:type can change the governing type.
func (m *machine) simpleText(st *xsd.SimpleType, decl *xsd.ElementDecl, f *frame, text string, out *[]Violation) (val xsdtypes.Value, ok bool) {
	if f.sawElemChild {
		report(out, m.path(f), "element content is not allowed in a simple-type element")
		return val, false
	}
	if decl.Fixed != nil && text == "" {
		text = *decl.Fixed
	}
	if decl.Default != nil && text == "" {
		text = *decl.Default
	}
	val, err := st.Parse(text)
	if err != nil {
		report(out, m.path(f), err.Error())
		return val, false
	}
	if decl.Fixed != nil {
		if want, ferr := st.Parse(*decl.Fixed); ferr == nil && !val.Equal(want) {
			report(out, m.path(f), fmt.Sprintf("value %q does not equal the fixed value %q", text, *decl.Fixed))
		}
	}
	m.track(st, text, f, out)
	return val, true
}

// contentText checks the content of f, a complex type with simple
// content. Unlike simpleText it has no default or fixed value, and it
// records an ID-family value even when the value fails to parse.
func (m *machine) contentText(st *xsd.SimpleType, f *frame, text string, out *[]Violation) (val xsdtypes.Value, ok bool) {
	if f.sawElemChild {
		report(out, m.path(f), "element content is not allowed in simple content")
		return val, false
	}
	val, err := st.Parse(text)
	if err != nil {
		report(out, m.path(f), err.Error())
	}
	m.track(st, text, f, out)
	return val, err == nil
}

// track records the text of f, a value of type st, in the ID table if st
// is ID-family.
func (m *machine) track(st *xsd.SimpleType, lexical string, f *frame, out *[]Violation) {
	if kind := m.ids.kind(st); kind != "" {
		m.ids.add(kind, lexical, m.path(f), out)
	}
}

// childDecl returns the declaration governing a child the content model
// matched to leaf: the declared element or the substitution-group member
// the child names, or for a lax wildcard (wild) the global declaration of
// that name. A nil decl with a nil error means the child is accepted
// unvalidated.
func (v *Validator) childDecl(leaf *contentmodel.Leaf, name xsd.QName) (decl *xsd.ElementDecl, wild bool, err error) {
	switch data := leaf.Data.(type) {
	case *xsd.ElementDecl:
		decl, err = v.schema.ResolveChild(data, name)
		return decl, false, err
	case *contentmodel.Wildcard:
		decl, _ = v.schema.LookupElement(name)
		return decl, true, nil
	}
	return nil, false, nil
}

// step is where a child element sits under its parent: its name and its
// 1-based position among the parent's children of that name. A frame
// keeps its step rather than its path; machine.path renders the path
// only when something needs it.
type step struct {
	prefix, local string
	n             int
}

// under returns the step's path below parent.
func (s step) under(parent string) string {
	var buf [pathBuf]byte
	return string(s.appendTo(append(buf[:0], parent...)))
}

// pathBuf is the stack buffer a path is rendered in before it is copied
// into its string; a longer path spills to the heap.
const pathBuf = 256

// appendTo appends the step to a path under construction: its tag with
// the position from the second same-tag sibling on (item, item[2]).
func (s step) appendTo(b []byte) []byte {
	b = append(b, '/')
	if s.prefix != "" {
		b = append(b, s.prefix...)
		b = append(b, ':')
	}
	b = append(b, s.local...)
	if s.n > 1 {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(s.n), 10)
		b = append(b, ']')
	}
	return b
}

// childCounts numbers an element's children per name for indexed steps.
// The first maxCountList distinct names are counted in place, which costs
// no allocation for the few distinct names an element usually has; the
// rest spill into a map so an element with many distinct child names
// stays linear.
type childCounts struct {
	list  [maxCountList]step
	n     int
	spill map[[2]string]int
}

const maxCountList = 8

// next returns the step of the next child, named prefix:local.
func (cc *childCounts) next(name xmlparser.Name) step {
	for i := range cc.list[:cc.n] {
		if c := &cc.list[i]; c.local == name.Local && c.prefix == name.Prefix {
			c.n++
			return *c
		}
	}
	if cc.n < maxCountList {
		cc.list[cc.n] = step{prefix: name.Prefix, local: name.Local, n: 1}
		cc.n++
		return cc.list[cc.n-1]
	}
	if cc.spill == nil {
		cc.spill = map[[2]string]int{}
	}
	key := [2]string{name.Prefix, name.Local}
	cc.spill[key]++
	return step{prefix: name.Prefix, local: name.Local, n: cc.spill[key]}
}
