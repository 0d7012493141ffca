package repro

// E8 — differential testing of the streaming validator against the DOM
// path. The streaming pass must reproduce ValidateBytes' verdicts exactly:
// same accept/reject decision, same violations, same order, same paths and
// messages — over every bundled schema, over generator-produced mutants of
// the paper's purchase order, and over malformed input.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// streamFeaturesXSD exercises the streaming modes the bundled schemas do
// not: empty content, mixed content, nillable elements, fixed/default
// element values, and IDREF resolution.
const streamFeaturesXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc" type="DocType"/>
  <xsd:complexType name="DocType">
    <xsd:sequence>
      <xsd:element name="marker" minOccurs="0">
        <xsd:complexType>
          <xsd:attribute name="tag" type="xsd:string"/>
        </xsd:complexType>
      </xsd:element>
      <xsd:element name="para" type="ParaType" minOccurs="0" maxOccurs="unbounded"/>
      <xsd:element name="opt" type="xsd:string" nillable="true" minOccurs="0" default="fallback"/>
      <xsd:element name="code" type="xsd:string" fixed="A1" minOccurs="0"/>
      <xsd:element name="node" minOccurs="0" maxOccurs="unbounded">
        <xsd:complexType>
          <xsd:attribute name="id" type="xsd:ID" use="required"/>
          <xsd:attribute name="ref" type="xsd:IDREF"/>
        </xsd:complexType>
      </xsd:element>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="ParaType" mixed="true">
    <xsd:sequence>
      <xsd:element name="em" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>
`

// scopedTypesXSD puts xsi:type="p:Derived" where the machine is entered
// from a DOM with xmlns:p bound only on an ancestor: inside an
// identity-constrained element (a buffered subtree on the token stream),
// in a level wide enough to validate in parallel at the default
// ParallelMinFanout, and under the global <p:holder>, which
// TestValidateElementInheritsBindings validates on its own.
const scopedTypesXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:s="urn:example:scoped" targetNamespace="urn:example:scoped">
  <xsd:complexType name="Base">
    <xsd:sequence>
      <xsd:element name="v" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Derived">
    <xsd:complexContent>
      <xsd:extension base="s:Base">
        <xsd:attribute name="extra" type="xsd:int"/>
      </xsd:extension>
    </xsd:complexContent>
  </xsd:complexType>
  <xsd:complexType name="Holder">
    <xsd:sequence>
      <xsd:element name="thing" type="s:Base" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="holder" type="s:Holder"/>
  <xsd:element name="doc">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="keyed" type="s:Holder">
          <xsd:unique name="extras">
            <xsd:selector xpath="thing"/>
            <xsd:field xpath="@extra"/>
          </xsd:unique>
        </xsd:element>
        <xsd:element name="wide" type="s:Holder"/>
        <xsd:element ref="s:holder"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
`

// scopedTypesDoc is an instance of scopedTypesXSD whose three xsi:type
// attributes name typ; every other <thing> is a plain Base.
func scopedTypesDoc(typ string) string {
	thing := `<thing xsi:type="p:` + typ + `" extra="1"><v>x</v></thing>`
	return `<p:doc xmlns:p="urn:example:scoped" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">` +
		`<keyed>` + thing + `<thing><v>y</v></thing></keyed>` +
		`<wide>` + strings.Repeat(`<thing><v>y</v></thing>`, 8) + thing + strings.Repeat(`<thing><v>y</v></thing>`, 8) + `</wide>` +
		`<p:holder><thing><v>y</v></thing>` + thing + `</p:holder></p:doc>`
}

// interpModelXSD gives <card> a seven-way xs:all, which
// contentmodel.CompileGlushkov rejects as too large, so every path
// matches it with the interpreter. IDs and IDREFs sit on <card> (outside
// the model), on its child <g> (inside it) and on <link>.
const interpModelXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="registry">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="card" type="Card" maxOccurs="unbounded"/>
        <xsd:element name="link" minOccurs="0" maxOccurs="unbounded">
          <xsd:complexType>
            <xsd:attribute name="to" type="xsd:IDREF" use="required"/>
          </xsd:complexType>
        </xsd:element>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
  <xsd:complexType name="Card">
    <xsd:all>
      <xsd:element name="a" type="xsd:string"/>
      <xsd:element name="b" type="xsd:int"/>
      <xsd:element name="c" type="xsd:string"/>
      <xsd:element name="d" type="xsd:string"/>
      <xsd:element name="e" type="xsd:string"/>
      <xsd:element name="f" type="xsd:string"/>
      <xsd:element name="g">
        <xsd:complexType>
          <xsd:attribute name="id" type="xsd:ID"/>
          <xsd:attribute name="ref" type="xsd:IDREF"/>
        </xsd:complexType>
      </xsd:element>
    </xsd:all>
    <xsd:attribute name="id" type="xsd:ID"/>
  </xsd:complexType>
</xsd:schema>
`

// diffCase is one schema+instances differential group.
type diffCase struct {
	name      string
	xsdSrc    string
	instances map[string]string
}

var diffCases = []diffCase{
	{
		name:   "purchase order",
		xsdSrc: schemas.PurchaseOrderXSD,
		instances: map[string]string{
			"paper fig 1":                schemas.PurchaseOrderDoc,
			"empty items":                `<purchaseOrder><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items/></purchaseOrder>`,
			"unknown root":               `<notAnOrder/>`,
			"bad order date and bad zip": `<purchaseOrder orderDate="soon"><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>abc</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items/></purchaseOrder>`,
		},
	},
	{
		name:   "evolved purchase order",
		xsdSrc: schemas.EvolvedPurchaseOrderXSD,
		instances: map[string]string{
			"single address":      `<purchaseOrder><singAddr country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></singAddr><items/></purchaseOrder>`,
			"two addresses":       `<purchaseOrder><twoAddr><first country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></first><second country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></second></twoAddr><items/></purchaseOrder>`,
			"both alternatives":   `<purchaseOrder><singAddr country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></singAddr><twoAddr><first country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></first><second country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></second></twoAddr><items/></purchaseOrder>`,
			"neither alternative": `<purchaseOrder><items/></purchaseOrder>`,
		},
	},
	{
		name:   "address derivation and substitution",
		xsdSrc: schemas.AddressDerivationXSD,
		instances: map[string]string{
			"base address":                `<address><name>n</name><street>s</street><city>c</city></address>`,
			"xsi:type extension":          `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="USAddress"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></address>`,
			"xsi:type unknown":            `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="NoSuchType"><name>n</name></address>`,
			"xsi:type undeclared prefix":  `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="po:USAddress"><name>n</name></address>`,
			"substitution group":          `<commentBlock><comment>a</comment><shipComment>b</shipComment><customerComment>c</customerComment></commentBlock>`,
			"abstract head used directly": `<noteBlock><note>x</note></noteBlock>`,
			"abstract head substituted":   `<noteBlock><shipNote>x</shipNote></noteBlock>`,
			"xsi:nil on non-nillable":     `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:nil="true"/>`,
		},
	},
	{
		name:   "namespaced order",
		xsdSrc: schemas.NamespacedOrderXSD,
		instances: map[string]string{
			"valid qualified":      `<po:order xmlns:po="urn:example:po" priority="3"><po:id>7</po:id><po:note>hi</po:note></po:order>`,
			"default namespace":    `<order xmlns="urn:example:po"><id>7</id></order>`,
			"unqualified children": `<po:order xmlns:po="urn:example:po"><id>7</id></po:order>`,
			"wrong namespace":      `<order xmlns="urn:example:other"><id>7</id></order>`,
			"bad priority":         `<po:order xmlns:po="urn:example:po" priority="high"><po:id>7</po:id></po:order>`,
		},
	},
	{
		name:   "complex groups",
		xsdSrc: schemas.ComplexGroupsXSD,
		instances: map[string]string{
			"summary form":         `<report version="1"><title>t</title><summary>s</summary></report>`,
			"name form with pairs": `<report version="1"><title>t</title><first>f</first><last>l</last><key>k1</key><value>v1</value><key>k2</key><value>v2</value></report>`,
			"entries with ids":     `<report><title>t</title><summary>s</summary><entry id="a"><when>2001-01-01</when></entry><entry id="b"><when>2001-01-02</when></entry></report>`,
			"duplicate id":         `<report><title>t</title><summary>s</summary><entry id="a"><when>2001-01-01</when></entry><entry id="a"><when>2001-01-02</when></entry></report>`,
			// The journal test: entry's ID is tracked, then the content
			// model fails at <bogus/> and the ID must be rolled back.
			"id rollback on content failure": `<report><title>t</title><summary>s</summary><entry id="a"><when>2001-01-01</when></entry><bogus/><entry id="a"><when>2001-01-03</when></entry></report>`,
			"dangling key without value":     `<report><title>t</title><summary>s</summary><key>k</key></report>`,
			"text in element-only":           `<report><title>t</title>stray<summary>s</summary></report>`,
		},
	},
	{
		name:   "named group",
		xsdSrc: schemas.NamedGroupXSD,
		instances: map[string]string{
			"choice first":  `<purchaseOrder><singAddr>a</singAddr><items>i</items></purchaseOrder>`,
			"choice second": `<purchaseOrder><twoAddr>a</twoAddr><comment>c</comment><items>i</items></purchaseOrder>`,
			"both choices":  `<purchaseOrder><singAddr>a</singAddr><twoAddr>b</twoAddr><items>i</items></purchaseOrder>`,
			"missing items": `<purchaseOrder><singAddr>a</singAddr></purchaseOrder>`,
		},
	},
	{
		name:   "stream feature coverage",
		xsdSrc: streamFeaturesXSD,
		instances: map[string]string{
			"all features valid":                  `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><marker tag="m"/><para>mixed <em>text</em> here</para><opt xsi:nil="true"/><code>A1</code><node id="n1" ref="n2"/><node id="n2"/></doc>`,
			"empty content violated by element":   `<doc><marker><oops/></marker></doc>`,
			"empty content violated by text":      `<doc><marker>stray</marker></doc>`,
			"nilled with content":                 `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><opt xsi:nil="true">text</opt></doc>`,
			"nilled with comment":                 `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><opt xsi:nil="true"><!--c--></opt></doc>`,
			"xsi:nil false validates normally":    `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><opt xsi:nil="false"></opt></doc>`,
			"fixed value mismatch":                `<doc><code>B2</code></doc>`,
			"fixed value empty uses fixed":        `<doc><code/></doc>`,
			"dangling idref":                      `<doc><node id="n1" ref="ghost"/></doc>`,
			"mixed content accepts text":          `<doc><para>just text</para></doc>`,
			"mixed content rejects unknown child": `<doc><para>text <strong>x</strong></para></doc>`,
			"cdata in element-only":               `<doc><![CDATA[raw]]><marker/></doc>`,
		},
	},
	{
		name:   "namespace bindings at subtree entry",
		xsdSrc: scopedTypesXSD,
		instances: map[string]string{
			"derived type via ancestor prefix": scopedTypesDoc("Derived"),
			"unknown type via ancestor prefix": scopedTypesDoc("Nope"),
		},
	},
	{
		name:   "interpreted content model",
		xsdSrc: interpModelXSD,
		instances: map[string]string{
			"declared order":     `<registry><card id="c1"><a>a</a><b>1</b><c>c</c><d>d</d><e>e</e><f>f</f><g id="g1"/></card><link to="c1"/><link to="g1"/></registry>`,
			"any order":          `<registry><card id="c1"><g id="g1" ref="c2"/><f>f</f><e>e</e><d>d</d><c>c</c><b>1</b><a>a</a></card><card id="c2"><b>2</b><a>a</a><g/><c>c</c><d>d</d><f>f</f><e>e</e></card><link to="g1"/></registry>`,
			"single card":        `<registry><card><e>e</e><a>a</a><b>bad</b><c>c</c><d>d</d><f>f</f><g id="g1" ref="nowhere"/></card></registry>`,
			"missing particle":   `<registry><card id="c1"><a>a</a><b>1</b><c>c</c><d>d</d><e>e</e><g id="g1"/></card><link to="c1"/><link to="g1"/></registry>`,
			"repeated particle":  `<registry><card><a>a</a><a>a</a><b>1</b><c>c</c><d>d</d><e>e</e><f>f</f><g id="g1"/></card><card id="g1"><a>a</a><b>x</b><c>c</c><d>d</d><e>e</e><f>f</f><g/></card></registry>`,
			"bad child value":    `<registry><card id="c1"><a>a</a><b>one</b><c>c</c><d>d</d><e>e</e><f>f</f><g id="c1"/></card><link to="c1"/></registry>`,
			"duplicate id cards": `<registry><card id="x"><a>a</a><b>1</b><c>c</c><d>d</d><e>e</e><f>f</f><g id="y"/></card><card id="y"><a>a</a><b>1</b><c>c</c><d>d</d><e>e</e><f>f</f><g id="x"/></card></registry>`,
			"text in all group":  `<registry><card><a>a</a>stray<b>1</b><c>c</c><d>d</d><e>e</e><f>f</f><g/></card></registry>`,
		},
	},
	{
		name:   "malformed input",
		xsdSrc: schemas.PurchaseOrderXSD,
		instances: map[string]string{
			"mismatched tags":   `<purchaseOrder><shipTo></purchaseOrder>`,
			"truncated":         `<purchaseOrder><shipTo country="US"><name>n</nam`,
			"empty input":       ``,
			"garbage":           `not xml at all`,
			"undeclared prefix": `<purchaseOrder><po:items/></purchaseOrder>`,
			// Well-formedness error after a validity error: both paths
			// must report only the parse error.
			"late parse error after unknown root": `<nope><a></b></nope>`,
		},
	},
}

// assertSameResult fails the test unless the two results are identical in
// verdict, count, order, paths and messages.
func assertSameResult(t *testing.T, label string, domRes, streamRes *validator.Result) {
	t.Helper()
	if domRes.OK() != streamRes.OK() {
		t.Errorf("%s: verdict diverged: dom ok=%v stream ok=%v\n  dom: %v\n  stream: %v",
			label, domRes.OK(), streamRes.OK(), domRes.Violations, streamRes.Violations)
		return
	}
	if len(domRes.Violations) != len(streamRes.Violations) {
		t.Errorf("%s: violation count diverged: dom %d stream %d\n  dom: %v\n  stream: %v",
			label, len(domRes.Violations), len(streamRes.Violations), domRes.Violations, streamRes.Violations)
		return
	}
	for i := range domRes.Violations {
		if domRes.Violations[i] != streamRes.Violations[i] {
			t.Errorf("%s: violation %d diverged:\n  dom:    %v\n  stream: %v",
				label, i, domRes.Violations[i], streamRes.Violations[i])
		}
	}
}

// diffValidate runs one instance through both paths (and the streaming
// path a second time through a pathological one-byte reader) and asserts
// identical results.
func diffValidate(t *testing.T, schema *xsd.Schema, sv *validator.StreamValidator, label, src string) {
	t.Helper()
	_, domRes := validator.ValidateBytes(schema, []byte(src))
	streamRes := sv.ValidateBytes([]byte(src))
	assertSameResult(t, label, domRes, streamRes)
	readerRes := sv.ValidateReader(iotest.OneByteReader(strings.NewReader(src)))
	assertSameResult(t, label+" (one-byte reader)", domRes, readerRes)
}

// TestStreamMatchesDOM is the hand-curated differential corpus: every
// bundled schema plus a feature-coverage schema, valid and invalid
// instances, and malformed input.
func TestStreamMatchesDOM(t *testing.T) {
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			sv := validator.New(schema, nil).Stream()
			for label, src := range tc.instances {
				diffValidate(t, schema, sv, label, src)
			}
		})
	}
}

// TestValidateElementInheritsBindings validates <p:holder> on its own with
// ValidateElement: its xsi:type prefix is bound only on the document
// element, so the subtree entry must seed the bindings the element
// inherits. The result must be ValidateDocument's violations under
// <p:holder>, with paths rooted at the holder.
func TestValidateElementInheritsBindings(t *testing.T) {
	schema, err := xsd.ParseString(scopedTypesXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	decl, ok := schema.LookupElement(xsd.QName{Space: "urn:example:scoped", Local: "holder"})
	if !ok {
		t.Fatal("no global holder declaration")
	}
	v := validator.New(schema, nil)
	for _, typ := range []string{"Derived", "Nope"} {
		doc, err := dom.ParseString(scopedTypesDoc(typ))
		if err != nil {
			t.Fatal(err)
		}
		want := &validator.Result{}
		for _, vi := range v.ValidateDocument(doc).Violations {
			if rest, ok := strings.CutPrefix(vi.Path, "/p:doc/p:holder"); ok {
				want.Violations = append(want.Violations, validator.Violation{Path: "/p:holder" + rest, Msg: vi.Msg})
			}
		}
		if typ == "Nope" && want.OK() {
			t.Fatal("setup: the unknown type under <p:holder> is not reported")
		}
		holder := doc.DocumentElement().ChildElements()[2]
		assertSameResult(t, "ValidateElement with xsi:type="+typ, want, v.ValidateElement(holder, decl))
	}
}

// TestStreamMatchesDOMOnMutationCorpus replays E1's generator-produced
// mutants (one seeded defect per validity rule) through both paths.
func TestStreamMatchesDOMOnMutationCorpus(t *testing.T) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	sv := validator.New(schema, nil).Stream()
	for _, m := range poMutations {
		diffValidate(t, schema, sv, m.name, m.xmlOutput)
	}
}

// TestBatchBytesMatchesDOM runs each differential group, and the
// mutation corpus, as one StreamValidator.ValidateBatchContext call: every
// slot must equal ValidateBytes on its document, whatever the pool size
// and whichever worker took it.
func TestBatchBytesMatchesDOM(t *testing.T) {
	type group struct {
		name, xsdSrc string
		labels, srcs []string
	}
	var groups []group
	for _, tc := range diffCases {
		g := group{name: tc.name, xsdSrc: tc.xsdSrc}
		for label, src := range tc.instances {
			g.labels = append(g.labels, label)
			g.srcs = append(g.srcs, src)
		}
		groups = append(groups, g)
	}
	mutants := group{name: "mutation corpus", xsdSrc: schemas.PurchaseOrderXSD}
	for _, m := range poMutations {
		mutants.labels = append(mutants.labels, m.name)
		mutants.srcs = append(mutants.srcs, m.xmlOutput)
	}
	groups = append(groups, mutants)
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			schema, err := xsd.ParseString(g.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			srcs := make([][]byte, len(g.srcs))
			for i, src := range g.srcs {
				srcs[i] = []byte(src)
			}
			for _, workers := range []int{0, 1, 3} {
				sv := validator.New(schema, &validator.Options{Parallelism: workers}).Stream()
				results, err := sv.ValidateBatchContext(context.Background(), srcs)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i, src := range g.srcs {
					_, want := validator.ValidateBytes(schema, []byte(src))
					assertSameResult(t, fmt.Sprintf("%s (workers=%d)", g.labels[i], workers), want, results[i])
				}
			}
		})
	}
}

// mutateDoc parses src fresh, applies op to the element at index idx
// (document order), and returns the serialized mutant. ok=false when the
// op does not apply to that element.
func mutateDoc(t *testing.T, src string, idx int, op string) (string, bool) {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var els []*dom.Element
	var walk func(n dom.Node)
	walk = func(n dom.Node) {
		if e, ok := n.(*dom.Element); ok {
			els = append(els, e)
		}
		for _, c := range n.ChildNodes() {
			walk(c)
		}
	}
	walk(doc.DocumentElement())
	if idx >= len(els) {
		return "", false
	}
	el := els[idx]
	isRoot := el == doc.DocumentElement()
	switch op {
	case "remove":
		if isRoot {
			return "", false
		}
		if _, err := el.ParentNode().RemoveChild(el); err != nil {
			t.Fatalf("remove: %v", err)
		}
	case "duplicate":
		if isRoot {
			return "", false
		}
		clone := el.CloneNode(true)
		if _, err := el.ParentNode().InsertBefore(clone, el); err != nil {
			t.Fatalf("duplicate: %v", err)
		}
	case "rename":
		renamed := doc.CreateElementNS(el.NamespaceURI(), el.TagName()+"x")
		for _, a := range el.Attributes() {
			renamed.SetAttributeNS(a.Name().Space, a.NodeName(), a.Value())
		}
		for len(el.ChildNodes()) > 0 {
			if _, err := renamed.AppendChild(el.ChildNodes()[0]); err != nil {
				t.Fatalf("rename move: %v", err)
			}
		}
		if _, err := el.ParentNode().ReplaceChild(renamed, el); err != nil {
			t.Fatalf("rename: %v", err)
		}
	case "bogus-attr":
		el.SetAttribute("bogusAttr", "1")
	case "inject-text":
		if _, err := el.AppendChild(doc.CreateTextNode("stray!")); err != nil {
			t.Fatalf("inject: %v", err)
		}
	default:
		t.Fatalf("unknown op %q", op)
	}
	return dom.ToString(doc), true
}

// TestStreamMatchesDOMOnGeneratedMutants applies five systematic mutation
// operators to every element of the paper's Fig. 1 instance and checks
// both validators agree on each mutant (~100 instances).
func TestStreamMatchesDOMOnGeneratedMutants(t *testing.T) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	sv := validator.New(schema, nil).Stream()
	ops := []string{"remove", "duplicate", "rename", "bogus-attr", "inject-text"}
	mutants := 0
	for _, op := range ops {
		for idx := 0; ; idx++ {
			src, ok := mutateDoc(t, schemas.PurchaseOrderDoc, idx, op)
			if !ok {
				if idx == 0 {
					continue
				}
				break
			}
			mutants++
			diffValidate(t, schema, sv, fmt.Sprintf("%s[%d]", op, idx), src)
		}
	}
	if mutants < 50 {
		t.Errorf("mutation engine produced only %d mutants; expected a broad corpus", mutants)
	}
}

// bytesPerRun is the mean heap bytes f allocates per call.
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm pools and the schema's automata
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestStreamAllocCeiling holds the memory claims of the two drivers of the
// frame machine on purchase orders of 1,000 and 10,000 items:
//   - the token stream builds no tree, so it allocates less than parsing
//     the DOM and validating it;
//   - the DOM replay allocates no more than 1.2x what the stream does on
//     the same bytes, tokenizer included;
//   - neither grows super-linearly: 10x the items costs at most 12x the
//     bytes;
//   - the stream's allocation count at 1,000 items stays under
//     streamAllocsPO1000, about 10% above what it was measured at once
//     valid values and element paths stopped allocating.
func TestStreamAllocCeiling(t *testing.T) {
	schema := poSchema(t)
	v := validator.New(schema, nil)
	sv := v.Stream()
	type costs struct{ stream, replay, parseAndReplay uint64 }
	measure := func(items, runs int) costs {
		src := largePOSource(items)
		doc, err := dom.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var c costs
		c.stream = bytesPerRun(runs, func() {
			if res := sv.ValidateBytes(src); !res.OK() {
				t.Fatal(res.Err())
			}
		})
		c.replay = bytesPerRun(runs, func() {
			if res := v.ValidateDocument(doc); !res.OK() {
				t.Fatal(res.Err())
			}
		})
		c.parseAndReplay = bytesPerRun(runs, func() {
			doc, err := dom.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if res := v.ValidateDocument(doc); !res.OK() {
				t.Fatal(res.Err())
			}
		})
		t.Logf("%d-item PO: stream %d B/op, ValidateDocument %d B/op, dom.Parse+ValidateDocument %d B/op",
			items, c.stream, c.replay, c.parseAndReplay)
		return c
	}
	small, large := measure(1000, 5), measure(10000, 2)
	if small.stream >= small.parseAndReplay {
		t.Errorf("stream path allocates %d B/op, not below the DOM path's %d B/op", small.stream, small.parseAndReplay)
	}
	if small.replay*10 > small.stream*12 {
		t.Errorf("ValidateDocument allocates %d B/op, above 1.2x the stream's %d B/op", small.replay, small.stream)
	}
	if large.stream > 12*small.stream {
		t.Errorf("stream B/op grows super-linearly: %d at 10,000 items vs %d at 1,000", large.stream, small.stream)
	}
	if large.replay > 12*small.replay {
		t.Errorf("ValidateDocument B/op grows super-linearly: %d at 10,000 items vs %d at 1,000", large.replay, small.replay)
	}
	src := largePOSource(1000)
	allocs := testing.AllocsPerRun(5, func() { sv.ValidateBytes(src) })
	t.Logf("1000-item PO: stream %.0f allocs/op (ceiling %d)", allocs, streamAllocsPO1000)
	if allocs > streamAllocsPO1000 {
		t.Errorf("stream path makes %.0f allocs/op on the 1000-item PO, above the ceiling of %d", allocs, streamAllocsPO1000)
	}
}

// streamAllocsPO1000 bounds StreamValidator.ValidateBytes's allocations
// on the 1,000-item purchase order.
const streamAllocsPO1000 = 2270

// TestDecodeDocumentAllocCeiling holds the cost of decoding a parsed
// 1000-item purchase order: Binder.DecodeDocument is one replay of the tree
// with the decoder attached, so it stays under decodeAllocsPO1000, about
// 10% above what it was measured at once the DOM decoder's second walk
// was deleted (11,069 allocs/op, from 23,112 with it).
func TestDecodeDocumentAllocCeiling(t *testing.T) {
	b := bind.New(poSchema(t), nil)
	doc, err := dom.Parse(largePOSource(1000))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if v, res := b.DecodeDocument(doc); v == nil {
			t.Fatal(res.Err())
		}
	})
	t.Logf("1000-item PO: DecodeDocument %.0f allocs/op (ceiling %d)", allocs, decodeAllocsPO1000)
	if allocs > decodeAllocsPO1000 {
		t.Errorf("DecodeDocument makes %.0f allocs/op on the 1000-item PO, above the ceiling of %d", allocs, decodeAllocsPO1000)
	}
}

// decodeAllocsPO1000 bounds Binder.DecodeDocument's allocations on the
// parsed 1,000-item purchase order.
const decodeAllocsPO1000 = 12200
