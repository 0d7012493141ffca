package xsdtypes

import (
	"math/rand"
	"strings"
	"testing"
)

// refWhiteSpace is the whitespace normalization ApplyWhiteSpace replaced:
// a rune loop for replace, FieldsFunc and Join for collapse. It is kept
// as the reference the faster version must agree with.
func refWhiteSpace(ws WhiteSpace, s string) string {
	switch ws {
	case WSPreserve:
		return s
	case WSReplace:
		var sb strings.Builder
		for _, r := range s {
			if r == '\t' || r == '\n' || r == '\r' {
				sb.WriteByte(' ')
			} else {
				sb.WriteRune(r)
			}
		}
		return sb.String()
	default:
		return strings.Join(strings.FieldsFunc(s, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '\n' || r == '\r'
		}), " ")
	}
}

// TestApplyWhiteSpaceMatchesReference compares ApplyWhiteSpace with the
// reference on random strings of separators, letters, non-ASCII letters,
// spaces that are not XML whitespace (NBSP, NEL) and an invalid UTF-8
// byte. ParseList's splitting is held to strings.Fields on the same
// strings.
func TestApplyWhiteSpaceMatchesReference(t *testing.T) {
	pieces := []string{" ", "\t", "\n", "\r", "a", "é", " ", "\u0085", "\xff"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := r.Intn(12); n > 0; n-- {
			sb.WriteString(pieces[r.Intn(len(pieces))])
		}
		s := sb.String()
		for _, ws := range []WhiteSpace{WSPreserve, WSReplace, WSCollapse} {
			if got, want := ApplyWhiteSpace(ws, s), refWhiteSpace(ws, s); got != want {
				t.Fatalf("ApplyWhiteSpace(%d, %q) = %q, want %q", ws, s, got, want)
			}
		}
		var fields []string
		ParseList(s, func(item string) (Value, error) {
			fields = append(fields, item)
			return Value{}, nil
		})
		if want := strings.Fields(s); strings.Join(fields, "|") != strings.Join(want, "|") || len(fields) != len(want) {
			t.Fatalf("ParseList(%q) split %q, strings.Fields %q", s, fields, want)
		}
	}
}

// TestApplyWhiteSpaceNormalFormAllocatesNothing checks that a value
// already in the requested form comes back as it is.
func TestApplyWhiteSpaceNormalFormAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		ws WhiteSpace
		s  string
	}{
		{WSReplace, "a  b é "}, {WSCollapse, "a b é"}, {WSCollapse, ""},
	} {
		if n := testing.AllocsPerRun(100, func() { ApplyWhiteSpace(c.ws, c.s) }); n != 0 {
			t.Errorf("ApplyWhiteSpace(%d, %q): %.1f allocs, want 0", c.ws, c.s, n)
		}
	}
}

// TestFloatLexicalSpace pins which spellings xs:float and xs:double
// accept. The byte allow-list that replaced lower-casing and searching
// for "inf", "nan", "x" and "p" must accept and reject exactly the same
// strings; the Go digit separator is among the accepted ones, as it was.
func TestFloatLexicalSpace(t *testing.T) {
	for _, c := range []struct {
		s  string
		ok bool
	}{
		{"1.5E3", true}, {"1.5e-3", true}, {".5", true}, {"5.", true}, {"+.5e+3", true},
		{"-0", true}, {"INF", true}, {"+INF", true}, {"-INF", true}, {"NaN", true},
		{"1_000", true},
		{"inf", false}, {"Inf", false}, {"-inf", false}, {"Infinity", false},
		{"nan", false}, {"NAN", false}, {"0x1p3", false}, {"0X1P3", false}, {"1p3", false},
		{"1e", false}, {"e3", false}, {"", false}, {".", false}, {"1.5f", false},
		{"1 5", false}, {"١", false},
	} {
		for _, b := range []*Builtin{Float, Double} {
			_, err := b.Parse(c.s)
			if (err == nil) != c.ok {
				t.Errorf("%s.Parse(%q): err %v, want ok=%v", b.Name, c.s, err, c.ok)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { Double.Parse("1.5E3") }); n != 0 {
		t.Errorf("double with an exponent: %.1f allocs, want 0", n)
	}
}
