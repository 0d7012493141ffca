package xsdtypes

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/xmlparser"
)

// ValueKind identifies the primitive value space a Value belongs to.
type ValueKind int

// Value kinds.
const (
	VString ValueKind = iota
	VBool
	VDecimal
	VFloat // float and double share the representation
	VDuration
	VDateTime // all seven temporal types
	VHexBinary
	VBase64Binary
	VAnyURI
	VQName
	VNotation
	VList
)

// Value is a parsed simple-type value.
type Value struct {
	Kind  ValueKind
	Str   string // VString, VAnyURI, VQName (lexical prefix:local), VNotation
	Bool  bool
	Dec   Decimal
	F     float64
	DT    DateTime
	Dur   Duration
	Bytes []byte
	Items []Value
}

// String renders the value's canonical lexical form.
func (v Value) String() string {
	switch v.Kind {
	case VString, VAnyURI, VQName, VNotation:
		return v.Str
	case VBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case VDecimal:
		return v.Dec.String()
	case VFloat:
		switch {
		case math.IsInf(v.F, 1):
			return "INF"
		case math.IsInf(v.F, -1):
			return "-INF"
		case math.IsNaN(v.F):
			return "NaN"
		}
		return strconv.FormatFloat(v.F, 'G', -1, 64)
	case VDuration:
		return v.Dur.String()
	case VDateTime:
		return v.DT.String()
	case VHexBinary:
		return strings.ToUpper(hex.EncodeToString(v.Bytes))
	case VBase64Binary:
		return base64.StdEncoding.EncodeToString(v.Bytes)
	case VList:
		parts := make([]string, len(v.Items))
		for i, it := range v.Items {
			parts[i] = it.String()
		}
		return strings.Join(parts, " ")
	}
	return ""
}

// Equal reports value-space equality.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case VString, VAnyURI, VQName, VNotation:
		return v.Str == w.Str
	case VBool:
		return v.Bool == w.Bool
	case VDecimal:
		return v.Dec.Cmp(w.Dec) == 0
	case VFloat:
		return v.F == w.F || (math.IsNaN(v.F) && math.IsNaN(w.F))
	case VDuration:
		return v.Dur.Cmp(w.Dur) == 0
	case VDateTime:
		return v.DT.Cmp(w.DT) == 0
	case VHexBinary, VBase64Binary:
		return string(v.Bytes) == string(w.Bytes)
	case VList:
		if len(v.Items) != len(w.Items) {
			return false
		}
		for i := range v.Items {
			if !v.Items[i].Equal(w.Items[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders two values of the same primitive kind; it returns an
// error for unordered kinds (booleans, QNames, binaries) or mismatched
// kinds.
func Compare(v, w Value) (int, error) {
	if v.Kind != w.Kind {
		return 0, fmt.Errorf("cannot compare %v and %v values", v.Kind, w.Kind)
	}
	switch v.Kind {
	case VDecimal:
		return v.Dec.Cmp(w.Dec), nil
	case VFloat:
		if math.IsNaN(v.F) || math.IsNaN(w.F) {
			return 0, fmt.Errorf("NaN is unordered")
		}
		switch {
		case v.F < w.F:
			return -1, nil
		case v.F > w.F:
			return 1, nil
		default:
			return 0, nil
		}
	case VDateTime:
		return v.DT.Cmp(w.DT), nil
	case VDuration:
		return v.Dur.Cmp(w.Dur), nil
	case VString:
		return strings.Compare(v.Str, w.Str), nil
	default:
		return 0, fmt.Errorf("values of this kind are unordered")
	}
}

// WhiteSpace is the whiteSpace facet value.
type WhiteSpace int

// WhiteSpace modes.
const (
	WSPreserve WhiteSpace = iota
	WSReplace
	WSCollapse
)

// ApplyWhiteSpace normalizes s according to the whiteSpace facet. A value
// already in the requested form is returned as it is, without allocating.
func ApplyWhiteSpace(ws WhiteSpace, s string) string {
	switch ws {
	case WSPreserve:
		return s
	case WSReplace:
		if isReplaced(s) {
			return s
		}
		var sb strings.Builder
		sb.Grow(len(s))
		for _, r := range s {
			if r == '\t' || r == '\n' || r == '\r' {
				sb.WriteByte(' ')
			} else {
				sb.WriteRune(r)
			}
		}
		return sb.String()
	default: // WSCollapse
		if isCollapsed(s) {
			return s
		}
		// The separators are ASCII, so a byte loop splits exactly where
		// a rune loop would and copies everything else unchanged.
		var sb strings.Builder
		sb.Grow(len(s))
		sep := false
		for i := 0; i < len(s); i++ {
			if c := s[i]; c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				sep = sb.Len() > 0
			} else {
				if sep {
					sb.WriteByte(' ')
					sep = false
				}
				sb.WriteByte(c)
			}
		}
		return sb.String()
	}
}

// isReplaced reports whether s is its own replace form: no tab, newline
// or carriage return, and valid UTF-8 (the rewrite turns an invalid byte
// into U+FFFD).
func isReplaced(s string) bool {
	ascii := true
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\t' || c == '\n' || c == '\r':
			return false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return ascii || utf8.ValidString(s)
}

// isCollapsed reports whether s is its own collapse form: no tab, newline
// or carriage return, no leading or trailing space and no two spaces in a
// row.
func isCollapsed(s string) bool {
	space := true // a space here would be leading or doubled
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t', '\n', '\r':
			return false
		case ' ':
			if space {
				return false
			}
			space = true
		default:
			space = false
		}
	}
	return !space || s == ""
}

// ParseList parses a whitespace-separated list, splitting where
// strings.Fields does and parsing each item with parse. It stops at the
// first item error and returns it unchanged. An empty list is nil; any
// other is allocated once, at its exact length.
func ParseList(s string, parse func(item string) (Value, error)) ([]Value, error) {
	n := 0
	eachField(s, func(string) bool { n++; return true })
	if n == 0 {
		return nil, nil
	}
	items := make([]Value, 0, n)
	var err error
	eachField(s, func(f string) bool {
		var v Value
		if v, err = parse(f); err != nil {
			return false
		}
		items = append(items, v)
		return true
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

// eachField calls f on each field of s as strings.Fields splits it (runs
// of non-space characters, unicode.IsSpace deciding) until f returns
// false.
func eachField(s string, f func(field string) bool) {
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 && !f(s[start:i]) {
				return
			}
			start = -1
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		f(s[start:])
	}
}

// parseBool parses xs:boolean.
func parseBool(s string) (bool, error) {
	switch s {
	case "true", "1":
		return true, nil
	case "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("bad boolean %q", s)
}

// parseFloat parses xs:float/xs:double with the XSD special values.
func parseFloat(s string, bits int) (float64, error) {
	switch s {
	case "INF", "+INF":
		return math.Inf(1), nil
	case "-INF":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	// XSD does not allow hex floats, "Inf", "nan", or leading/trailing
	// junk; ParseFloat is close enough once every byte is one a decimal
	// float can hold. The underscore is one because ParseFloat accepts Go
	// digit separators (1_000), which this check has always let through.
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9', c == '+', c == '-', c == '.', c == 'e', c == 'E', c == '_':
		default:
			return 0, fmt.Errorf("bad float %q", s)
		}
	}
	f, err := strconv.ParseFloat(s, bits)
	if err != nil {
		return 0, fmt.Errorf("bad float %q", s)
	}
	return f, nil
}

// stdBase64 decodes standard base64 with padding.
func stdBase64(s string) ([]byte, error) {
	return base64.StdEncoding.DecodeString(s)
}

// parseQNameLexical validates a QName lexical form (prefix resolution is a
// schema-level concern handled by the validator, which has the namespace
// context).
func parseQNameLexical(s string) error {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		if !xmlparser.IsNCName(s) {
			return fmt.Errorf("bad QName %q", s)
		}
		return nil
	}
	if !xmlparser.IsNCName(s[:i]) || !xmlparser.IsNCName(s[i+1:]) {
		return fmt.Errorf("bad QName %q", s)
	}
	return nil
}
