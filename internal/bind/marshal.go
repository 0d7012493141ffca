package bind

// Value → XML. Marshal serializes a typed value tree and then runs the
// output back through the validator, so a Value that violates its content
// model (missing required field, wrong choice arm, bad scalar) is an
// explicit error rather than silently invalid XML. Namespaces are
// re-prefixed deterministically: the empty namespace stays unprefixed,
// xsi/xsd keep their conventional prefixes, and everything else is
// assigned ns1, ns2, … in first-seen document order, all declared on the
// root. Children keep document order, except that xs:all children are
// emitted in declared order. Equal values therefore marshal to byte-equal
// documents.

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// Marshal serializes v as schema-valid XML. The result is re-checked by
// the stream validator (no DOM is built); output that does not parse, or
// that the schema rejects, yields an error carrying the parse error or
// the first violation.
func (b *Binder) Marshal(v *Value) ([]byte, error) {
	if v == nil {
		return nil, fmt.Errorf("bind: cannot marshal a nil value")
	}
	out := Serialize(v)
	res, err := b.sv.ValidateWellFormed(out)
	if err != nil {
		return nil, fmt.Errorf("bind: marshaled document does not parse: %w", err)
	}
	if !res.OK() {
		viol := res.Violations[0]
		return nil, fmt.Errorf("bind: marshaled document is schema-invalid at %s: %s", viol.Path, viol.Msg)
	}
	return out, nil
}

// Serialize renders a value tree as deterministic XML without the
// re-parse/re-validate round trip. Generated binding packages use it as
// the serialization half of their specialized Marshal, pairing it with
// their own compiled validator instead of the interpreted one.
func Serialize(v *Value) []byte {
	ns := newNSTable()
	collectSpaces(v, ns)
	var buf bytes.Buffer
	writeXML(&buf, v, ns, true)
	return buf.Bytes()
}

// nsTable assigns stable prefixes to namespaces used in a value tree.
type nsTable struct {
	prefixes map[string]string
	order    []string // declaration order, excludes ""
	next     int
}

func newNSTable() *nsTable {
	return &nsTable{prefixes: map[string]string{"": ""}}
}

func (t *nsTable) add(space string) {
	if _, ok := t.prefixes[space]; ok {
		return
	}
	var pfx string
	switch space {
	case xsd.XSINamespace:
		pfx = "xsi"
	case xsd.XSDNamespace:
		pfx = "xsd"
	default:
		t.next++
		pfx = fmt.Sprintf("ns%d", t.next)
	}
	t.prefixes[space] = pfx
	t.order = append(t.order, space)
}

func (t *nsTable) qualify(name xsd.QName) string {
	if pfx := t.prefixes[name.Space]; pfx != "" {
		return pfx + ":" + name.Local
	}
	return name.Local
}

func collectSpaces(v *Value, ns *nsTable) {
	if v == nil || v.Kind == KindRaw {
		return
	}
	ns.add(v.Name.Space)
	if !v.TypeName.IsZero() || v.Kind == KindNil {
		ns.add(xsd.XSINamespace)
	}
	if !v.TypeName.IsZero() && v.TypeName.Space != "" {
		ns.add(v.TypeName.Space)
	}
	for _, a := range v.Attrs {
		if a.Name.Space != "" {
			ns.add(a.Name.Space)
		}
	}
	for _, c := range v.Children {
		collectSpaces(c, ns)
	}
	for _, s := range v.Segments {
		collectSpaces(s.Child, ns)
	}
}

func writeXML(w *bytes.Buffer, v *Value, ns *nsTable, root bool) {
	if v.Kind == KindRaw {
		// Raw wildcard fragments round-trip verbatim; they carry their own
		// namespace declarations from the source document.
		w.WriteString(v.Raw)
		return
	}
	tag := ns.qualify(v.Name)
	w.WriteByte('<')
	w.WriteString(tag)
	if root {
		for _, space := range ns.order {
			w.WriteString(` xmlns:`)
			w.WriteString(ns.prefixes[space])
			w.WriteString(`="`)
			w.WriteString(dom.EscapeAttr(space))
			w.WriteByte('"')
		}
	}
	if !v.TypeName.IsZero() {
		w.WriteString(` xsi:type="`)
		w.WriteString(dom.EscapeAttr(ns.qualify(v.TypeName)))
		w.WriteByte('"')
	}
	if v.Kind == KindNil {
		w.WriteString(` xsi:nil="true"`)
	}
	for _, a := range v.Attrs {
		w.WriteByte(' ')
		w.WriteString(ns.qualify(a.Name))
		w.WriteString(`="`)
		w.WriteString(dom.EscapeAttr(a.Value.String()))
		w.WriteByte('"')
	}
	switch v.Kind {
	case KindNil, KindEmpty:
		w.WriteString("/>")
	case KindSimple:
		lex := v.Simple.String()
		if lex == "" {
			w.WriteString("/>")
			return
		}
		w.WriteByte('>')
		w.WriteString(dom.EscapeText(lex))
		closeTag(w, tag)
	case KindStruct:
		if len(v.Children) == 0 {
			w.WriteString("/>")
			return
		}
		w.WriteByte('>')
		for _, c := range declaredOrder(v) {
			writeXML(w, c, ns, false)
		}
		closeTag(w, tag)
	case KindMixed:
		if len(v.Segments) == 0 {
			w.WriteString("/>")
			return
		}
		w.WriteByte('>')
		for _, s := range v.Segments {
			if s.Child != nil {
				writeXML(w, s.Child, ns, false)
			} else {
				w.WriteString(dom.EscapeText(s.Text))
			}
		}
		closeTag(w, tag)
	default:
		w.WriteString("/>")
	}
}

// declaredOrder returns the children of an xs:all value in declared
// order, the order FromJSON rebuilds them in, so a permuted document and
// its JSON projection marshal to the same bytes. Other content models fix
// the order themselves and keep document order. A child no particle of
// the group names (a substitution member) follows the declared ones.
func declaredOrder(v *Value) []*Value {
	ct, ok := v.typ.(*xsd.ComplexType)
	if !ok || ct.Particle == nil || ct.Particle.Group == nil || ct.Particle.Group.Kind != xsd.All {
		return v.Children
	}
	rank := func(c *Value) int {
		for i, p := range ct.Particle.Group.Particles {
			if p.Element != nil && p.Element.Name == c.Name {
				return i
			}
		}
		return len(ct.Particle.Group.Particles)
	}
	out := slices.Clone(v.Children)
	slices.SortStableFunc(out, func(a, b *Value) int { return rank(a) - rank(b) })
	return out
}

func closeTag(w *bytes.Buffer, tag string) {
	w.WriteString("</")
	w.WriteString(tag)
	w.WriteByte('>')
}
