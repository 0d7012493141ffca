package bind

// The decoder: a validator.StreamEvents consumer that builds the value
// tree from the frame machine's events. Both drivers fire them: the DOM
// replay (DecodeDocument, DecodeElement, below) and the token stream
// (DecodeReader, DecodeStreamBytes in stream.go). The only retained state
// is the open-element value stack; governing types arrive resolved and
// simple values arrive parsed from the validator's frames, so every
// element is classified and its text parsed exactly once, by the
// validator.

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/validator"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// DecodeBytes parses, validates and decodes a document. An unparseable
// document yields the parse-error verdict (matching ValidateBytes); an
// invalid one yields its violations; in both cases the Value is nil.
func (b *Binder) DecodeBytes(src []byte) (*Value, *validator.Result) {
	doc, err := dom.Parse(src)
	if err != nil {
		return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
	}
	return b.DecodeDocument(doc)
}

// DecodeDocument validates the document and, when valid, decodes it into
// a typed Value, in one replay of the tree. The returned Result is always
// the full verdict.
func (b *Binder) DecodeDocument(doc *dom.Document) (*Value, *validator.Result) {
	d := &decoder{}
	v, res, err := d.finish(b.v.ValidateDocumentEvents(doc, d))
	if err != nil {
		// Defensive: a document the validator accepted must decode; any
		// error here is a binder bug surfaced as a verdict.
		return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
	}
	return v, res
}

// DecodeElement decodes one element governed by decl, which the caller
// has already validated. wild marks a wildcard-admitted element (bound
// under "$any"). The replay's verdict belongs to the caller: it sees only
// el's subtree, so an IDREF to an ID outside it is not an error here.
func (b *Binder) DecodeElement(el *dom.Element, decl *xsd.ElementDecl, wild bool) (*Value, error) {
	d := &decoder{}
	b.v.ValidateElementEvents(el, decl, wild, d)
	if d.err != nil {
		return nil, d.err
	}
	if d.root == nil {
		return nil, fmt.Errorf("bind: element %s produced no value", decl.Name)
	}
	return d.root, nil
}

// decoder implements validator.StreamEvents.
type decoder struct {
	stack []*Value
	root  *Value
	err   error
}

func (d *decoder) finish(res *validator.Result) (*Value, *validator.Result, error) {
	if !res.OK() {
		return nil, res, nil
	}
	if d.err != nil {
		return nil, res, d.err
	}
	if d.root == nil {
		return nil, res, fmt.Errorf("bind: decode produced no root value")
	}
	return d.root, res, nil
}

// OpenElement implements validator.StreamEvents.
func (d *decoder) OpenElement(decl *xsd.ElementDecl, typ xsd.Type, tok *xmlparser.Token, nilled, wildcard bool) {
	v := &Value{Name: xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local}, typ: typ, Wild: wildcard}
	if lex, _ := tok.Attr(xsd.XSINamespace, "type"); lex != "" {
		v.TypeName = typ.TypeName()
	}
	if ct, ok := typ.(*xsd.ComplexType); ok {
		v.Attrs = typedAttrs(ct, tok)
	}
	switch {
	case nilled:
		v.Kind = KindNil
	default:
		switch t := typ.(type) {
		case *xsd.SimpleType:
			v.Kind = KindSimple
		case *xsd.ComplexType:
			switch t.Kind {
			case xsd.ContentSimple:
				v.Kind = KindSimple
			case xsd.ContentEmpty:
				v.Kind = KindEmpty
			case xsd.ContentMixed:
				v.Kind = KindMixed
			default:
				v.Kind = KindStruct
			}
		}
	}
	d.stack = append(d.stack, v)
}

// CloseElement implements validator.StreamEvents.
func (d *decoder) CloseElement(val *xsdtypes.Value) {
	n := len(d.stack)
	if n == 0 {
		if d.err == nil {
			d.err = fmt.Errorf("bind: unbalanced CloseElement")
		}
		return
	}
	v := d.stack[n-1]
	d.stack = d.stack[:n-1]
	if v.Kind == KindSimple && val != nil {
		v.Simple = *val
	}
	d.attach(v)
}

// MixedText implements validator.StreamEvents.
func (d *decoder) MixedText(data string) {
	if n := len(d.stack); n > 0 && d.stack[n-1].Kind == KindMixed {
		d.stack[n-1].Segments = appendText(d.stack[n-1].Segments, data)
	}
}

// RawElement implements validator.StreamEvents: an undeclared wildcard
// subtree binds as its serialized XML.
func (d *decoder) RawElement(root *dom.Element) {
	name := xsd.QName{Space: root.NamespaceURI(), Local: root.LocalName()}
	d.attach(&Value{Name: name, Kind: KindRaw, Wild: true, Raw: dom.ToString(root)})
}

// attach delivers a completed child to the innermost open element, or
// records the root.
func (d *decoder) attach(v *Value) {
	if n := len(d.stack); n > 0 {
		p := d.stack[n-1]
		switch p.Kind {
		case KindMixed:
			p.Segments = append(p.Segments, Segment{Child: v})
		case KindStruct:
			p.Children = append(p.Children, v)
		}
		// Other parent kinds only occur on invalid documents; the value
		// is discarded with the verdict.
		return
	}
	if d.root == nil {
		d.root = v
	}
}
