package repro

// E12 correctness harness: the two decode paths (DOM and streaming) must
// agree byte-for-byte on the verdict, the canonical JSON and the
// marshaled XML, and decode∘marshal must be the identity modulo
// canonicalization, on every bundled schema plus wildcard coverage.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/wml"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// bindAnyXSD exercises the wildcard binding paths: xs:any children that
// resolve to a global declaration, raw subtrees with no declaration, and
// attribute wildcards.
const bindAnyXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="envelope">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="head" type="xsd:string"/>
        <xsd:any minOccurs="0" maxOccurs="unbounded" processContents="lax"/>
      </xsd:sequence>
      <xsd:anyAttribute processContents="lax"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="extra" type="xsd:string"/>
</xsd:schema>
`

// bindCases extends the validation differential corpus (diffCases) with
// schemas whose decode shapes matter specifically for binding.
var bindCases = []diffCase{
	{
		name:   "wml",
		xsdSrc: wml.Schema,
		instances: map[string]string{
			"mixed inline markup":       `<wml><card id="c1" title="T"><p align="left">Hello <b>bold</b> and <a href="http://example.org/" title="t">link</a> tail</p></card></wml>`,
			"select with options":       `<wml><card><p><select name="s" multiple="true"><option value="v1">One</option><option>Two</option></select></p></card></wml>`,
			"line break and empty card": `<wml><card><p>one<br/>two</p></card><card/></wml>`,
			"bad alignment":             `<wml><card><p align="diagonal">x</p></card></wml>`,
			"unknown inline element":    `<wml><card><p>text <strong>x</strong></p></card></wml>`,
		},
	},
	{
		name:   "wildcards",
		xsdSrc: bindAnyXSD,
		instances: map[string]string{
			"declared global via any": `<envelope><head>h</head><extra>e</extra></envelope>`,
			"raw undeclared subtree":  `<envelope><head>h</head><foo xmlns="urn:mystery" a="b">text<inner/><!--c--></foo></envelope>`,
			"wildcard attribute":      `<envelope loose="yes"><head>h</head></envelope>`,
			"mixed raw and declared":  `<envelope><head>h</head><extra>one</extra><bar/><extra>two</extra></envelope>`,
		},
	},
}

// decodeBoth runs one instance through both decode paths (the streaming
// path twice, once through a one-byte reader) and asserts identical
// verdicts and identical values.
func decodeBoth(t *testing.T, b *bind.Binder, label, src string) (*bind.Value, bool) {
	t.Helper()
	domVal, domRes := b.DecodeBytes([]byte(src))
	streamVal, streamRes, err := b.DecodeStreamBytes([]byte(src))
	if err != nil {
		t.Errorf("%s: stream decode error: %v", label, err)
		return nil, false
	}
	assertSameResult(t, label, domRes, streamRes)
	if (domVal == nil) != (streamVal == nil) {
		t.Errorf("%s: value presence diverged: dom=%v stream=%v", label, domVal != nil, streamVal != nil)
		return nil, false
	}
	if domVal == nil {
		if domRes.OK() {
			t.Errorf("%s: no value from a valid document", label)
		}
		return nil, false
	}
	domJSON, streamJSON := b.JSON(domVal), b.JSON(streamVal)
	if !bytes.Equal(domJSON, streamJSON) {
		t.Errorf("%s: JSON diverged:\n  dom:    %s\n  stream: %s", label, domJSON, streamJSON)
		return nil, false
	}
	readerVal, readerRes, err := b.DecodeReader(t.Context(), iotest.OneByteReader(strings.NewReader(src)))
	if err != nil || !readerRes.OK() || !bytes.Equal(b.JSON(readerVal), domJSON) {
		t.Errorf("%s: one-byte reader decode diverged (err=%v)", label, err)
	}
	return domVal, true
}

// assertRoundTrip checks decode∘marshal = id (via the canonical JSON) and
// that FromJSON inverts the JSON projection.
func assertRoundTrip(t *testing.T, b *bind.Binder, label string, v *bind.Value) {
	t.Helper()
	out, err := b.Marshal(v)
	if err != nil {
		t.Errorf("%s: marshal: %v", label, err)
		return
	}
	v2, res := b.DecodeBytes(out)
	if v2 == nil {
		t.Errorf("%s: marshaled document failed to decode: %v\n  xml: %s", label, res.Violations, out)
		return
	}
	j1, j2 := b.JSON(v), b.JSON(v2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("%s: round trip changed the value:\n  before: %s\n  after:  %s\n  xml: %s", label, j1, j2, out)
		return
	}
	v3, err := b.FromJSON(j1)
	if err != nil {
		t.Errorf("%s: FromJSON: %v\n  json: %s", label, err, j1)
		return
	}
	out3, err := b.Marshal(v3)
	if err != nil {
		t.Errorf("%s: marshal after FromJSON: %v\n  json: %s", label, err, j1)
		return
	}
	if !bytes.Equal(out, out3) {
		t.Errorf("%s: JSON round trip changed the document:\n  direct:    %s\n  via JSON:  %s", label, out, out3)
	}
}

// TestBindStreamMatchesDOM is the binding differential: every schema and
// instance from the validation differential corpus, plus WML and wildcard
// coverage, through both decode paths and the round-trip property.
func TestBindStreamMatchesDOM(t *testing.T) {
	cases := append(append([]diffCase{}, diffCases...), bindCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			b := bind.New(schema, nil)
			for label, src := range tc.instances {
				if v, ok := decodeBoth(t, b, label, src); ok {
					assertRoundTrip(t, b, label, v)
				}
			}
		})
	}
}

// eventLog records a validation pass's observer events as strings, so the
// sequences the two drivers fire can be compared.
type eventLog []string

func (l *eventLog) OpenElement(decl *xsd.ElementDecl, typ xsd.Type, _ *xmlparser.Token, nilled, wild bool) {
	*l = append(*l, fmt.Sprintf("open %s type=%s/%p nilled=%v wild=%v", decl.Name, typ.TypeName(), typ, nilled, wild))
}

func (l *eventLog) CloseElement(val *xsdtypes.Value) {
	if val == nil {
		*l = append(*l, "close")
		return
	}
	*l = append(*l, fmt.Sprintf("close %d %q", val.Kind, val.String()))
}

func (l *eventLog) MixedText(data string) { *l = append(*l, fmt.Sprintf("text %q", data)) }

func (l *eventLog) RawElement(root *dom.Element) { *l = append(*l, "raw "+dom.ToString(root)) }

// TestStreamEventsMatchDOM is the observer differential: on every
// well-formed instance of the binding corpus, valid or not, the DOM replay
// and the token stream fire the same event sequence. The corpus covers
// the stream's buffered subtrees (the identity-constrained holder and the
// interpreted xs:all card), raw wildcard subtrees and mixed content.
func TestStreamEventsMatchDOM(t *testing.T) {
	seen := map[string]int{}
	for _, tc := range append(append([]diffCase{}, diffCases...), bindCases...) {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			v := validator.New(schema, nil)
			for label, src := range tc.instances {
				doc, err := dom.ParseString(src)
				if err != nil {
					continue // the stream fires events before it finds the error
				}
				var replay, stream eventLog
				v.ValidateDocumentEvents(doc, &replay)
				v.Stream().ValidateBytesEvents([]byte(src), &stream)
				if strings.Join(replay, "\n") != strings.Join(stream, "\n") {
					t.Errorf("%s: event sequences diverged:\n  replay: %q\n  stream: %q", label, replay, stream)
				}
				for _, e := range replay {
					seen[tc.name+": "+strings.Fields(e)[0]]++
				}
			}
		})
	}
	for _, want := range []string{
		"namespace bindings at subtree entry: open",
		"interpreted content model: open",
		"wildcards: raw",
		"stream feature coverage: text",
		"wml: text",
	} {
		if seen[want] == 0 {
			t.Errorf("corpus fired no %q events", want)
		}
	}
}

// decodeElementXSD declares <entry> globally, so one entry can be decoded
// on its own; its IDREF points at a sibling.
const decodeElementXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="registry">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element ref="entry" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="entry">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="label" type="xsd:string"/>
        <xsd:element name="weight" type="xsd:decimal"/>
      </xsd:sequence>
      <xsd:attribute name="id" type="xsd:ID"/>
      <xsd:attribute name="ref" type="xsd:IDREF"/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
`

// TestBindDecodeElement decodes one subtree of a validated document with
// DecodeElement. Its IDREF names an ID outside the subtree, which the
// subtree's own replay cannot resolve; the value must still be the one
// DecodeDocument produced for that subtree, and wild must reach the root
// value.
func TestBindDecodeElement(t *testing.T) {
	schema, err := xsd.ParseString(decodeElementXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	decl, ok := schema.LookupElement(xsd.QName{Local: "entry"})
	if !ok {
		t.Fatal("no global entry declaration")
	}
	b := bind.New(schema, nil)
	doc, err := dom.ParseString(`<registry><entry id="a"><label>one</label><weight>1.50</weight></entry><entry id="b" ref="a"><label>two</label><weight>2</weight></entry></registry>`)
	if err != nil {
		t.Fatal(err)
	}
	whole, res := b.DecodeDocument(doc)
	if whole == nil {
		t.Fatalf("document did not decode: %v", res.Violations)
	}
	el := doc.DocumentElement().ChildElements()[1]
	if b.Validator().ValidateElement(el, decl).OK() {
		t.Fatal("setup: the subtree's IDREF resolves on its own")
	}
	for _, wild := range []bool{false, true} {
		v, err := b.DecodeElement(el, decl, wild)
		if err != nil {
			t.Fatalf("wild=%v: %v", wild, err)
		}
		if v.Wild != wild {
			t.Errorf("wild=%v: root value has Wild=%v", wild, v.Wild)
		}
		if got, want := b.JSON(v), b.JSON(whole.Children[1]); !bytes.Equal(got, want) {
			t.Errorf("wild=%v: DecodeElement JSON %s, DecodeDocument's subtree %s", wild, got, want)
		}
	}
}

// TestBindMutationCorpus replays E1's generated mutants through both
// decode paths: every mutant must produce the same verdict and, when
// valid, the same value.
func TestBindMutationCorpus(t *testing.T) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	b := bind.New(schema, nil)
	for _, m := range poMutations {
		if v, ok := decodeBoth(t, b, m.name, m.xmlOutput); ok {
			assertRoundTrip(t, b, m.name, v)
		}
	}
}

// FuzzBindRoundTrip feeds arbitrary documents to both decode paths: the
// paths must agree on verdict and value, and any accepted document must
// survive decode → marshal → decode unchanged.
func FuzzBindRoundTrip(f *testing.F) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		f.Fatalf("schema: %v", err)
	}
	b := bind.New(schema, nil)
	f.Add(schemas.PurchaseOrderDoc)
	for _, tc := range diffCases {
		if tc.xsdSrc != schemas.PurchaseOrderXSD {
			continue
		}
		for _, src := range tc.instances {
			f.Add(src)
		}
	}
	for _, m := range poMutations {
		f.Add(m.xmlOutput)
	}
	f.Fuzz(func(t *testing.T, src string) {
		domVal, domRes := b.DecodeBytes([]byte(src))
		streamVal, streamRes, err := b.DecodeStreamBytes([]byte(src))
		if err != nil {
			t.Fatalf("stream decode error: %v", err)
		}
		if domRes.OK() != streamRes.OK() {
			t.Fatalf("verdict diverged: dom=%v stream=%v", domRes.Violations, streamRes.Violations)
		}
		if (domVal == nil) != (streamVal == nil) {
			t.Fatalf("value presence diverged")
		}
		if domVal == nil {
			return
		}
		j1, j2 := b.JSON(domVal), b.JSON(streamVal)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("JSON diverged:\n  dom:    %s\n  stream: %s", j1, j2)
		}
		out, err := b.Marshal(domVal)
		if err != nil {
			t.Fatalf("marshal rejected a decoded value: %v\n  json: %s", err, j1)
		}
		v2, res := b.DecodeBytes(out)
		if v2 == nil {
			t.Fatalf("marshaled document invalid: %v\n  xml: %s", res.Violations, out)
		}
		if !bytes.Equal(j1, b.JSON(v2)) {
			t.Fatalf("round trip changed the value:\n  before: %s\n  after:  %s", j1, b.JSON(v2))
		}
	})
}
