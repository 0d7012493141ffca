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

// attributes checks an element's attributes against its governing type; n
// and at enumerate them in document order. A simple type admits none. A
// complex type requires each to be declared (or admitted by its wildcard),
// to parse and to equal its fixed value, and every required attribute to
// be present. ID-family values go to the ID table under the attribute's
// path.
func (m *machine) attributes(typ xsd.Type, n int, at func(int) (xmlparser.Name, string), path string, out *[]Violation) {
	ct, _ := typ.(*xsd.ComplexType)
	for i := 0; i < n; i++ {
		name, value := at(i)
		if isMetaName(name) {
			continue
		}
		if ct == nil {
			report(out, path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", name.Qualified()))
			continue
		}
		use := ct.FindAttributeUse(xsd.QName{Space: name.Space, Local: name.Local})
		if use == nil || use.Prohibited {
			if ct.AttrWildcard == nil || !ct.AttrWildcard.Admits(name.Space) {
				report(out, path, fmt.Sprintf("attribute %q is not declared for this element", name.Qualified()))
			}
			continue
		}
		val, err := use.Decl.Type.Parse(value)
		if err != nil {
			report(out, path, fmt.Sprintf("attribute %q: %v", name.Qualified(), err))
			continue
		}
		if use.Fixed != nil {
			if want, ferr := use.Decl.Type.Parse(*use.Fixed); ferr == nil && !val.Equal(want) {
				report(out, path, fmt.Sprintf("attribute %q must have the fixed value %q", name.Qualified(), *use.Fixed))
			}
		}
		if kind := m.ids.kind(use.Decl.Type); kind != "" {
			m.ids.add(kind, value, path+"/@"+name.Qualified(), out)
		}
	}
	if ct == nil {
		return
	}
	for _, use := range ct.AttributeUses {
		if use.Required && !use.Prohibited && !hasAttr(n, at, use.Decl.Name) {
			report(out, path, fmt.Sprintf("required attribute %q is missing", use.Decl.Name.Local))
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

// simpleText checks the content of a simple-typed element: no child
// elements; the declaration's default or fixed value stands in for empty
// text; the value must parse and equal the fixed value; ID-family values
// go to the ID table. ok reports a parsed value.
func (m *machine) simpleText(st *xsd.SimpleType, decl *xsd.ElementDecl, elemChild bool, text, path string, out *[]Violation) (val xsdtypes.Value, ok bool) {
	if elemChild {
		report(out, path, "element content is not allowed in a simple-type element")
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
		report(out, path, err.Error())
		return val, false
	}
	if decl.Fixed != nil {
		if want, ferr := st.Parse(*decl.Fixed); ferr == nil && !val.Equal(want) {
			report(out, path, fmt.Sprintf("value %q does not equal the fixed value %q", text, *decl.Fixed))
		}
	}
	m.ids.track(st, text, path, out)
	return val, true
}

// contentText checks the content of a complex type with simple content.
// Unlike simpleText it has no default or fixed value, and it records an
// ID-family value even when the value fails to parse.
func (m *machine) contentText(st *xsd.SimpleType, elemChild bool, text, path string, out *[]Violation) (val xsdtypes.Value, ok bool) {
	if elemChild {
		report(out, path, "element content is not allowed in simple content")
		return val, false
	}
	val, err := st.Parse(text)
	if err != nil {
		report(out, path, err.Error())
	}
	m.ids.track(st, text, path, out)
	return val, err == nil
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

// childCounts numbers an element's children per tag for indexed paths.
// The first maxCountList distinct tags are counted in place, which costs
// no allocation for the few distinct tags an element usually has; the
// rest spill into a map so an element with many distinct child names
// stays linear.
type childCounts struct {
	list  [maxCountList]childCount
	n     int
	spill map[string]int
}

type childCount struct {
	tag string
	n   int
}

const maxCountList = 8

// path returns the next child's path under parent: its tag with a 1-based
// position among same-tag siblings from the second on (item, item[2]).
func (cc *childCounts) path(parent, tag string) string {
	for i := range cc.list[:cc.n] {
		if c := &cc.list[i]; c.tag == tag {
			c.n++
			return indexedStep(parent, tag, c.n)
		}
	}
	if cc.n < maxCountList {
		cc.list[cc.n] = childCount{tag: tag, n: 1}
		cc.n++
		return parent + "/" + tag
	}
	if cc.spill == nil {
		cc.spill = map[string]int{}
	}
	cc.spill[tag]++
	return indexedStep(parent, tag, cc.spill[tag])
}

func indexedStep(parent, tag string, n int) string {
	if n > 1 {
		return parent + "/" + tag + "[" + strconv.Itoa(n) + "]"
	}
	return parent + "/" + tag
}
