package validator

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

func poValidator(t *testing.T) *Validator {
	t.Helper()
	s, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(s, nil)
}

// validate parses and validates, failing the test on parse errors.
func validate(t *testing.T, v *Validator, src string) *Result {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return v.ValidateDocument(doc)
}

// wantViolation asserts an invalid result whose messages mention substr.
func wantViolation(t *testing.T, res *Result, substr string) {
	t.Helper()
	if res.OK() {
		t.Errorf("expected violation containing %q, document accepted", substr)
		return
	}
	for _, v := range res.Violations {
		if strings.Contains(v.Error(), substr) {
			return
		}
	}
	t.Errorf("no violation contains %q; got:\n%v", substr, res.Err())
}

// TestFig1DocumentIsValid: the paper's Figure 1 document is valid against
// the Figures 2/3 schema.
func TestFig1DocumentIsValid(t *testing.T) {
	v := poValidator(t)
	res := validate(t, v, schemas.PurchaseOrderDoc)
	if !res.OK() {
		t.Fatalf("Fig. 1 document should be valid:\n%v", res.Err())
	}
}

func TestMissingRequiredChild(t *testing.T) {
	v := poValidator(t)
	// No billTo.
	src := `<purchaseOrder>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <items/>
	</purchaseOrder>`
	wantViolation(t, validate(t, v, src), "billTo")
}

func TestWrongChildOrder(t *testing.T) {
	v := poValidator(t)
	src := `<purchaseOrder>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <items/>
	</purchaseOrder>`
	wantViolation(t, validate(t, v, src), "unexpected element")
}

func TestUnknownRootElement(t *testing.T) {
	v := poValidator(t)
	wantViolation(t, validate(t, v, `<order/>`), "no global declaration")
}

func TestSimpleTypeViolations(t *testing.T) {
	v := poValidator(t)
	base := func(quantity, price, partNum, date string) string {
		return `<purchaseOrder>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <items><item partNum="` + partNum + `">
	    <productName>p</productName>
	    <quantity>` + quantity + `</quantity>
	    <USPrice>` + price + `</USPrice>
	    ` + date + `
	  </item></items>
	</purchaseOrder>`
	}
	// All good.
	if res := validate(t, v, base("5", "9.99", "926-AA", "")); !res.OK() {
		t.Errorf("valid item rejected: %v", res.Err())
	}
	// quantity over maxExclusive 100.
	wantViolation(t, validate(t, v, base("100", "9.99", "926-AA", "")), "must be < 100")
	// quantity zero violates positiveInteger.
	wantViolation(t, validate(t, v, base("0", "9.99", "926-AA", "")), "must be >= 1")
	// Non-decimal price.
	wantViolation(t, validate(t, v, base("5", "cheap", "926-AA", "")), "USPrice")
	// SKU pattern.
	wantViolation(t, validate(t, v, base("5", "9.99", "926-aa", "")), "pattern")
	// Bad date.
	wantViolation(t, validate(t, v, base("5", "9.99", "926-AA", "<shipDate>next week</shipDate>")), "shipDate")
}

func TestAttributeValidation(t *testing.T) {
	v := poValidator(t)
	// Missing required partNum.
	src := `<purchaseOrder>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <items><item>
	    <productName>p</productName><quantity>1</quantity><USPrice>1</USPrice>
	  </item></items>
	</purchaseOrder>`
	wantViolation(t, validate(t, v, src), "required attribute \"partNum\"")

	// Undeclared attribute.
	src2 := strings.Replace(schemas.PurchaseOrderDoc, `<purchaseOrder orderDate="1999-10-20">`,
		`<purchaseOrder orderDate="1999-10-20" bogus="x">`, 1)
	wantViolation(t, validate(t, v, src2), `"bogus" is not declared`)

	// Fixed country attribute.
	src3 := strings.Replace(schemas.PurchaseOrderDoc, `<shipTo country="US">`, `<shipTo country="DE">`, 1)
	wantViolation(t, validate(t, v, src3), "fixed value")

	// Bad orderDate.
	src4 := strings.Replace(schemas.PurchaseOrderDoc, `orderDate="1999-10-20"`, `orderDate="tomorrow"`, 1)
	wantViolation(t, validate(t, v, src4), "orderDate")
}

func TestTextInElementOnlyContent(t *testing.T) {
	v := poValidator(t)
	src := strings.Replace(schemas.PurchaseOrderDoc, `<items>`, `<items>stray text`, 1)
	wantViolation(t, validate(t, v, src), "character data")
}

func TestTooManyOccurrences(t *testing.T) {
	v := poValidator(t)
	src := strings.Replace(schemas.PurchaseOrderDoc,
		`<comment>Hurry, my lawn is going wild</comment>`,
		`<comment>one</comment><comment>two</comment>`, 1)
	wantViolation(t, validate(t, v, src), "unexpected element comment")
}

func TestXsiType(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Base">
    <xsd:sequence><xsd:element name="a" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Derived">
    <xsd:complexContent><xsd:extension base="Base">
      <xsd:sequence><xsd:element name="b" type="xsd:string"/></xsd:sequence>
    </xsd:extension></xsd:complexContent>
  </xsd:complexType>
  <xsd:complexType name="Other">
    <xsd:sequence><xsd:element name="c" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="root" type="Base"/>
</xsd:schema>`
	s, err := xsd.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	xsiNS := `xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"`
	// Derived content under xsi:type.
	good := `<root ` + xsiNS + ` xsi:type="Derived"><a>x</a><b>y</b></root>`
	if res := validate(t, v, good); !res.OK() {
		t.Errorf("xsi:type=Derived: %v", res.Err())
	}
	// Derived content without xsi:type is invalid.
	wantViolation(t, validate(t, v, `<root><a>x</a><b>y</b></root>`), "unexpected element b")
	// Unrelated type.
	wantViolation(t, validate(t, v, `<root `+xsiNS+` xsi:type="Other"><c>z</c></root>`), "does not derive")
	// Unknown type.
	wantViolation(t, validate(t, v, `<root `+xsiNS+` xsi:type="Nope"><a>x</a></root>`), "unknown type")
}

func TestXsiNil(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="maybe" type="xsd:int" nillable="true"/>
  <xsd:element name="must" type="xsd:int"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	xsiNS := `xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"`
	if res := validate(t, v, `<maybe `+xsiNS+` xsi:nil="true"/>`); !res.OK() {
		t.Errorf("nilled element: %v", res.Err())
	}
	wantViolation(t, validate(t, v, `<maybe `+xsiNS+` xsi:nil="true">5</maybe>`), "must be empty")
	wantViolation(t, validate(t, v, `<must `+xsiNS+` xsi:nil="true"/>`), "non-nillable")
}

func TestSubstitutionGroupValidation(t *testing.T) {
	s, err := xsd.ParseString(schemas.AddressDerivationXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	if res := validate(t, v, `<commentBlock><comment>a</comment><shipComment>b</shipComment></commentBlock>`); !res.OK() {
		t.Errorf("substitution members: %v", res.Err())
	}
	// The abstract head cannot appear.
	wantViolation(t, validate(t, v, `<noteBlock><note>x</note></noteBlock>`), "")
	if res := validate(t, v, `<noteBlock><shipNote>x</shipNote></noteBlock>`); !res.OK() {
		t.Errorf("abstract substitution member: %v", res.Err())
	}
}

func TestEmptyContent(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="E"><xsd:attribute name="k" type="xsd:string"/></xsd:complexType>
  <xsd:element name="empty" type="E"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	if res := validate(t, v, `<empty k="v"/>`); !res.OK() {
		t.Errorf("empty content: %v", res.Err())
	}
	wantViolation(t, validate(t, v, `<empty>text</empty>`), "empty content")
	wantViolation(t, validate(t, v, `<empty><x/></empty>`), "empty content")
}

func TestMixedContent(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Para" mixed="true">
    <xsd:sequence>
      <xsd:element name="b" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="p" type="Para"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	if res := validate(t, v, `<p>hello <b>bold</b> world</p>`); !res.OK() {
		t.Errorf("mixed content: %v", res.Err())
	}
}

func TestIDIntegrity(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Node">
    <xsd:attribute name="id" type="xsd:ID" use="required"/>
    <xsd:attribute name="ref" type="xsd:IDREF"/>
  </xsd:complexType>
  <xsd:complexType name="Graph">
    <xsd:sequence><xsd:element name="node" type="Node" maxOccurs="unbounded"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="graph" type="Graph"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	if res := validate(t, v, `<graph><node id="a"/><node id="b" ref="a"/></graph>`); !res.OK() {
		t.Errorf("id graph: %v", res.Err())
	}
	wantViolation(t, validate(t, v, `<graph><node id="a"/><node id="a"/></graph>`), "duplicate ID")
	wantViolation(t, validate(t, v, `<graph><node id="a" ref="zz"/></graph>`), "does not match any ID")
	// SkipIDChecks disables both.
	v2 := New(s, &Options{SkipIDChecks: true})
	if res := validate(t, v2, `<graph><node id="a"/><node id="a" ref="zz"/></graph>`); !res.OK() {
		t.Errorf("id checks not skipped: %v", res.Err())
	}
}

func TestWildcardValidation(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="known" type="xsd:int"/>
  <xsd:complexType name="Open">
    <xsd:sequence>
      <xsd:any minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="open" type="Open"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	// Unknown elements pass (lax).
	if res := validate(t, v, `<open><whatever/><more x="1"/></open>`); !res.OK() {
		t.Errorf("lax wildcard: %v", res.Err())
	}
	// Known global declarations are validated.
	wantViolation(t, validate(t, v, `<open><known>not-a-number</known></open>`), "known")
	if res := validate(t, v, `<open><known>42</known></open>`); !res.OK() {
		t.Errorf("valid known child: %v", res.Err())
	}
}

func TestViolationPaths(t *testing.T) {
	v := poValidator(t)
	src := strings.Replace(schemas.PurchaseOrderDoc, `<quantity>1</quantity>
      <USPrice>39.98</USPrice>`, `<quantity>500</quantity>
      <USPrice>39.98</USPrice>`, 1)
	res := validate(t, v, src)
	if res.OK() {
		t.Fatal("expected violation")
	}
	found := false
	for _, viol := range res.Violations {
		if strings.Contains(viol.Path, "item[2]") && strings.Contains(viol.Path, "quantity") {
			found = true
		}
	}
	if !found {
		t.Errorf("violation path should locate item[2]/quantity: %v", res.Err())
	}
}

func TestValidateBytes(t *testing.T) {
	s, _ := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	doc, res := ValidateBytes(s, []byte(schemas.PurchaseOrderDoc))
	if doc == nil || !res.OK() {
		t.Errorf("ValidateBytes: %v", res.Err())
	}
	_, res = ValidateBytes(s, []byte(`<unclosed>`))
	if res.OK() {
		t.Error("parse error should surface as violation")
	}
}

func TestFixedAndDefaultElementValues(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="version" type="xsd:string" fixed="1.0"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	if res := validate(t, v, `<version>1.0</version>`); !res.OK() {
		t.Errorf("matching fixed: %v", res.Err())
	}
	if res := validate(t, v, `<version/>`); !res.OK() {
		t.Errorf("empty fixed element takes the fixed value: %v", res.Err())
	}
	wantViolation(t, validate(t, v, `<version>2.0</version>`), "fixed")
}

// TestChildCountsPaths checks the walks' indexed child steps, including
// tags counted after the short list has spilled into its map and
// prefixed tags.
func TestChildCountsPaths(t *testing.T) {
	var cc childCounts
	seen := map[string]int{}
	for i := 0; i < 4*maxCountList; i++ {
		name := xmlparser.Name{Local: fmt.Sprintf("t%d", i%(2*maxCountList))}
		if i%3 == 0 {
			name.Prefix = "x"
		}
		tag := name.Qualified()
		seen[tag]++
		want := "/p/" + tag
		if n := seen[tag]; n > 1 {
			want = fmt.Sprintf("/p/%s[%d]", tag, n)
		}
		at := cc.next(name)
		if got := at.under("/p"); got != want {
			t.Fatalf("child %d: path %q, want %q", i, got, want)
		}
	}
	if cc.n != maxCountList || len(cc.spill) != len(seen)-maxCountList {
		t.Errorf("list holds %d tags and spill %d, want %d and %d", cc.n, len(cc.spill), maxCountList, len(seen)-maxCountList)
	}
}

// TestJoinFields checks that the ID table keys IDs and IDREFs exactly as
// strings.Fields splits them, Unicode spaces such as NBSP and NEL
// included, and copies only a value it must rewrite.
func TestJoinFields(t *testing.T) {
	for _, s := range []string{
		"", " ", "x", "x y", " x", "x ", "x  y", "x\ty", "x\u00a0", "\u0085x", "x\u2003y",
		"a b c", "é", "\xff", " \xff ", "x\n",
	} {
		if got, want := joinFields(s), strings.Join(strings.Fields(s), " "); got != want {
			t.Errorf("joinFields(%q) = %q, want %q", s, got, want)
		}
	}
	for _, s := range []string{"po-1", "a b c", "é"} {
		if n := testing.AllocsPerRun(100, func() { joinFields(s) }); n != 0 {
			t.Errorf("joinFields(%q): %.1f allocs, want 0", s, n)
		}
	}
}
