package xsd

import (
	"testing"
)

// The chain schema derives three levels deep in each variety, and W2/W3
// relax and then tighten the whitespace mode of an atomic chain, so that
// a base's facets see a different lexical form than the derived type's.
const chainXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="N1"><xs:restriction base="xs:integer"><xs:maxInclusive value="1000"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="N2"><xs:restriction base="N1"><xs:minExclusive value="0"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="N3"><xs:restriction base="N2"><xs:totalDigits value="2"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="S1"><xs:restriction base="xs:token"><xs:maxLength value="8"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="S2"><xs:restriction base="S1"><xs:pattern value="[a-z]+( [a-z]+)*"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="S3"><xs:restriction base="S2"><xs:enumeration value="abc"/><xs:enumeration value="x y"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="W2"><xs:restriction base="S2"><xs:whiteSpace value="preserve"/><xs:maxLength value="6"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="W3"><xs:restriction base="W2"><xs:whiteSpace value="collapse"/><xs:minLength value="2"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="L1"><xs:list itemType="N3"/></xs:simpleType>
  <xs:simpleType name="L2"><xs:restriction base="L1"><xs:maxLength value="3"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="L3"><xs:restriction base="L2"><xs:minLength value="2"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="U1"><xs:union memberTypes="N3 xs:date"/></xs:simpleType>
  <xs:simpleType name="U2"><xs:restriction base="U1"><xs:pattern value="[0-9-]{2,10}"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="U3"><xs:restriction base="U2"><xs:pattern value="[0-9]+"/></xs:restriction></xs:simpleType>
  <xs:element name="e" type="xs:string"/>
</xs:schema>`

var chainCases = []struct{ typ, value string }{
	{"N3", "42"}, {"N3", " 42 "}, {"N3", "4x"}, {"N3", "2000"}, {"N3", "0"}, {"N3", "150"},
	{"N2", "150"}, {"N2", "-3"}, {"N1", "1001"},
	{"S3", "abc"}, {"S3", "abcdefghij"}, {"S3", "ABC"}, {"S3", "abd"}, {"S3", " x \t y "},
	{"W2", "ab"}, {"W2", " ab"}, {"W2", "ab cd"}, {"W2", "abcdefg"}, {"W2", "a\tb"},
	{"W3", " ab "}, {"W3", "a"}, {"W3", " a  b "}, {"W3", "abcdefghi"},
	{"L3", "1 2"}, {"L3", "1"}, {"L3", "1 2 3 4"}, {"L3", "1 x"}, {"L3", "1 150"}, {"L3", ""},
	{"U3", "42"}, {"U3", "2002-10-10"}, {"U3", "150"}, {"U3", "x"}, {"U2", "2002-10-10"}, {"U2", "1999-13-01"},
}

// chainGolden is each value's Parse error message ("" for valid) as
// Parse reported it while it still gathered the chain's steps into a
// slice per call. The allocation-free Parse must name every failure the
// same way: after the innermost failing level in an atomic chain, after
// the outermost type in a list or union chain.
var chainGolden = []struct{ typ, value, msg string }{
	{"N3", "42", ""},
	{"N3", " 42 ", ""},
	{"N3", "4x", "integer: bad digit 'x' in decimal \"4x\""},
	{"N3", "2000", "N1: value \"2000\" must be <= 1000"},
	{"N3", "0", "N2: value \"0\" must be > 0"},
	{"N3", "150", "N3: value 150 has more than 2 total digits"},
	{"N2", "150", ""},
	{"N2", "-3", "N2: value \"-3\" must be > 0"},
	{"N1", "1001", "N1: value \"1001\" must be <= 1000"},
	{"S3", "abc", ""},
	{"S3", "abcdefghij", "S1: length is 10, must be at most 8"},
	{"S3", "ABC", "S2: value \"ABC\" does not match pattern \"[a-z]+( [a-z]+)*\""},
	{"S3", "abd", "S3: value \"abd\" is not one of the enumerated values"},
	{"S3", " x \t y ", ""},
	{"W2", "ab", ""},
	{"W2", " ab", "W2: value \" ab\" does not match pattern \"[a-z]+( [a-z]+)*\""},
	{"W2", "ab cd", ""},
	{"W2", "abcdefg", "W2: length is 7, must be at most 6"},
	{"W2", "a\tb", "W2: value \"a\\tb\" does not match pattern \"[a-z]+( [a-z]+)*\""},
	{"W3", " ab ", ""},
	{"W3", "a", "W3: length is 1, must be at least 2"},
	{"W3", " a  b ", ""},
	{"W3", "abcdefghi", "S1: length is 9, must be at most 8"},
	{"L3", "1 2", ""},
	{"L3", "1", "L3: length is 1, must be at least 2"},
	{"L3", "1 2 3 4", "L3: length is 4, must be at most 3"},
	{"L3", "1 x", "list item \"x\": integer: bad digit 'x' in decimal \"x\""},
	{"L3", "1 150", "list item \"150\": N3: value 150 has more than 2 total digits"},
	{"L3", "", "L3: length is 0, must be at least 2"},
	{"U3", "42", ""},
	{"U3", "2002-10-10", "U3: value \"2002-10-10\" does not match pattern \"[0-9]+\""},
	{"U3", "150", "U3: no union member accepts \"150\": N3: value 150 has more than 2 total digits"},
	{"U3", "x", "U3: no union member accepts \"x\": integer: bad digit 'x' in decimal \"x\""},
	{"U2", "2002-10-10", ""},
	{"U2", "1999-13-01", "U2: no union member accepts \"1999-13-01\": integer: bad digit '-' in decimal \"1999-13-01\""},
}

func chainSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := ParseString(chainXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func simpleType(t testing.TB, s *Schema, name string) *SimpleType {
	t.Helper()
	typ, ok := s.LookupType(QName{Local: name})
	if !ok {
		t.Fatalf("no type %s", name)
	}
	return typ.(*SimpleType)
}

func TestChainMessagesGolden(t *testing.T) {
	s := chainSchema(t)
	for _, c := range chainGolden {
		_, err := simpleType(t, s, c.typ).Parse(c.value)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.msg {
			t.Errorf("%s.Parse(%q): got %q, want %q", c.typ, c.value, got, c.msg)
		}
	}
}

// TestValidValuesAllocateNothing holds the claim that checking a valid
// atomic value costs no garbage: whitespace already in normal form is not
// copied, the derivation chains are walked without building them, facets
// and patterns are checked in place.
func TestValidValuesAllocateNothing(t *testing.T) {
	s := chainSchema(t)
	user, err := ParseString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="quantity"><xs:restriction base="xs:positiveInteger"><xs:maxExclusive value="100"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="SKU"><xs:restriction base="xs:string"><xs:pattern value="\d{3}-[A-Z]{2}"/></xs:restriction></xs:simpleType>
</xs:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		st    *SimpleType
		value string
	}{
		{s.SimpleTypeOf("string"), "Alice Smith"},
		{s.SimpleTypeOf("token"), "a b c"},
		{s.SimpleTypeOf("NMTOKEN"), "US"},
		{s.SimpleTypeOf("decimal"), "148.95"},
		{s.SimpleTypeOf("date"), "1999-10-20"},
		{s.SimpleTypeOf("boolean"), "true"},
		{s.SimpleTypeOf("language"), "en-US"},
		{s.SimpleTypeOf("double"), "1.5E3"},
		{simpleType(t, user, "quantity"), "99"},
		{simpleType(t, user, "SKU"), "926-AA"},
		{simpleType(t, s, "N3"), "42"},
		{simpleType(t, s, "S3"), "abc"},
	}
	for _, c := range cases {
		if _, err := c.st.Parse(c.value); err != nil {
			t.Fatalf("%s.Parse(%q): %v", c.st.displayName(), c.value, err)
		}
		if n := testing.AllocsPerRun(100, func() { c.st.Parse(c.value) }); n != 0 {
			t.Errorf("%s.Parse(%q): %.1f allocs, want 0", c.st.displayName(), c.value, n)
		}
	}
}

// TestAttributeFixedValue checks that an attribute use's fixed value is
// parsed when the schema is built, against the attribute's type.
func TestAttributeFixedValue(t *testing.T) {
	s, err := ParseString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="e"><xs:complexType>
    <xs:attribute name="country" type="xs:NMTOKEN" fixed=" US "/>
    <xs:attribute name="n" type="xs:int" fixed="x"/>
    <xs:attribute name="free" type="xs:string"/>
  </xs:complexType></xs:element>
</xs:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := s.LookupElement(QName{Local: "e"})
	ct := e.Type.(*ComplexType)
	if v := ct.FindAttributeUse(QName{Local: "country"}).FixedValue(); v == nil || v.Str != "US" {
		t.Errorf("country: fixed value %v, want US", v)
	}
	if v := ct.FindAttributeUse(QName{Local: "n"}).FixedValue(); v != nil {
		t.Errorf("n: unparsable fixed value parsed as %v, want none", v)
	}
	if v := ct.FindAttributeUse(QName{Local: "free"}).FixedValue(); v != nil {
		t.Errorf("free: fixed value %v without a fixed attribute", v)
	}
}
