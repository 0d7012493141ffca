package xsdregex

import (
	"testing"
	"testing/quick"
)

// matchCase is a pattern/input/expected triple exercised against both the
// NFA simulation and the DFA.
type matchCase struct {
	pattern string
	input   string
	want    bool
}

var matchCases = []matchCase{
	// The paper's SKU pattern (Fig. 3, line 59).
	{`\d{3}-[A-Z]{2}`, "926-AA", true},
	{`\d{3}-[A-Z]{2}`, "926-aa", false},
	{`\d{3}-[A-Z]{2}`, "92-AA", false},
	{`\d{3}-[A-Z]{2}`, "9261-AA", false},
	{`\d{3}-[A-Z]{2}`, "926-AAX", false}, // anchored
	{`\d{3}-[A-Z]{2}`, "", false},

	// Literals and implicit anchoring.
	{`abc`, "abc", true},
	{`abc`, "xabc", false},
	{`abc`, "abcx", false},
	{``, "", true},
	{``, "x", false},

	// Quantifiers.
	{`a?`, "", true},
	{`a?`, "a", true},
	{`a?`, "aa", false},
	{`a*`, "", true},
	{`a*`, "aaaa", true},
	{`a+`, "", false},
	{`a+`, "aaa", true},
	{`a{2,4}`, "a", false},
	{`a{2,4}`, "aa", true},
	{`a{2,4}`, "aaaa", true},
	{`a{2,4}`, "aaaaa", false},
	{`a{3}`, "aaa", true},
	{`a{3}`, "aa", false},
	{`a{2,}`, "aa", true},
	{`a{2,}`, "aaaaaa", true},
	{`a{2,}`, "a", false},
	{`a{0,2}`, "", true},
	{`(ab){2}`, "abab", true},
	{`(ab){2}`, "aba", false},

	// Alternation and grouping.
	{`cat|dog`, "cat", true},
	{`cat|dog`, "dog", true},
	{`cat|dog`, "cow", false},
	{`(a|b)*c`, "ababc", true},
	{`(a|b)*c`, "c", true},
	{`(a|b)*c`, "abd", false},
	{`a(b|)c`, "abc", true},
	{`a(b|)c`, "ac", true},

	// Character classes.
	{`[abc]+`, "cab", true},
	{`[abc]+`, "cad", false},
	{`[a-z]+`, "hello", true},
	{`[a-z]+`, "Hello", false},
	{`[^a-z]+`, "ABC1", true},
	{`[^a-z]+`, "aBC", false},
	{`[-+]?[0-9]+`, "-42", true},
	{`[-+]?[0-9]+`, "+7", true},
	{`[-+]?[0-9]+`, "13", true},
	{`[-+]?[0-9]+`, "i13", false},
	{`[a\-c]`, "-", true},
	{`[\]]`, "]", true},

	// Class subtraction (XSD-specific).
	{`[a-z-[aeiou]]+`, "bcdfg", true},
	{`[a-z-[aeiou]]+`, "bcae", false},
	{`[\w-[\d]]+`, "abc", true},
	{`[\w-[\d]]+`, "ab1", false},

	// Multi-char escapes.
	{`\s*`, " \t\n\r", true},
	{`\S+`, "abc", true},
	{`\S+`, "a b", false},
	{`\w+`, "hello_?", false},
	{`\d+`, "0123456789", true},
	{`\d+`, "12a", false},
	{`\D+`, "abc", true},
	{`\i\c*`, "po:name", true},
	{`\i\c*`, "1bad", false},

	// Single-char escapes.
	{`a\.b`, "a.b", true},
	{`a\.b`, "axb", false},
	{`a.b`, "axb", true},
	{`a.b`, "a\nb", false}, // '.' excludes newline
	{`\(\)`, "()", true},
	{`\\`, `\`, true},
	{`\n`, "\n", true},
	{`\t`, "\t", true},

	// Category escapes.
	{`\p{Lu}+`, "ABC", true},
	{`\p{Lu}+`, "AbC", false},
	{`\p{L}+`, "héllo", true},
	{`\P{L}+`, "123!", true},
	{`\p{Nd}{2}`, "42", true},
	{`\p{IsBasicLatin}+`, "plain", true},
	{`\p{IsBasicLatin}+`, "héllo", false},
	{`\p{IsGreek}+`, "αβγ", true},

	// Realistic XSD patterns.
	{`[0-9]{4}-[0-9]{2}-[0-9]{2}`, "1999-05-21", true},
	{`[A-Z]{2}[0-9]{2}[A-Z0-9]{1,30}`, "DE89370400440532013000", true},
	{`([a-zA-Z0-9._%+-])+@([a-zA-Z0-9.-])+`, "a.b@example.com", true},
	{`(\+|-)?([0-9]+(\.[0-9]*)?|\.[0-9]+)`, "-3.14", true},
	{`(\+|-)?([0-9]+(\.[0-9]*)?|\.[0-9]+)`, "3.", true},
	{`(\+|-)?([0-9]+(\.[0-9]*)?|\.[0-9]+)`, ".", false},
	{`[^:]*`, "no-colon-here", true},
	{`[^:]*`, "with:colon", false},
}

func TestMatchNFA(t *testing.T) {
	for _, c := range matchCases {
		re, err := Compile(c.pattern)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.pattern, err)
			continue
		}
		if got := re.MatchString(c.input); got != c.want {
			t.Errorf("NFA %q.Match(%q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestMatchDFA(t *testing.T) {
	for _, c := range matchCases {
		re := MustCompile(c.pattern)
		if err := re.EnableDFA(); err != nil {
			t.Errorf("EnableDFA(%q): %v", c.pattern, err)
			continue
		}
		if got := re.MatchString(c.input); got != c.want {
			t.Errorf("DFA %q.Match(%q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`a{2`, `a{`, `a{x}`, `a{3,1}`, `(`, `(a`, `a)`, `[`, `[]`, `[a`,
		`\q`, `\p{Nope}`, `\p`, `a**`, `*a`, `+`, `?x`, `a\`,
	}
	for _, p := range bad {
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%q): expected error", p)
		}
	}
}

func TestCharSetOps(t *testing.T) {
	a := NewCharSet(RuneRange{'a', 'f'}, RuneRange{'x', 'z'})
	b := NewCharSet(RuneRange{'d', 'y'})
	if got := a.Intersect(b); got.Count() != 5 { // d,e,f,x,y
		t.Errorf("intersect count: %d (%v)", got.Count(), got.Ranges)
	}
	if got := a.Union(b); got.Count() != int64('z'-'a')+1 {
		t.Errorf("union count: %d", got.Count())
	}
	if got := a.Subtract(b); got.Count() != 4 { // a,b,c,z
		t.Errorf("subtract count: %d (%v)", got.Count(), got.Ranges)
	}
	neg := a.Negate()
	if neg.Contains('b') || !neg.Contains('g') || !neg.Contains(0) || !neg.Contains(maxRune) {
		t.Errorf("negate wrong")
	}
	if !a.Negate().Negate().Contains('a') {
		t.Errorf("double negation lost members")
	}
}

func TestCharSetNormalization(t *testing.T) {
	s := NewCharSet(RuneRange{'c', 'e'}, RuneRange{'a', 'b'}, RuneRange{'f', 'h'})
	if len(s.Ranges) != 1 || s.Ranges[0] != (RuneRange{'a', 'h'}) {
		t.Errorf("adjacent ranges not merged: %v", s.Ranges)
	}
}

// TestNFADFAAgree is a property test: on random ASCII inputs, the NFA
// simulation and the followpos DFA must agree for every pattern. The
// last pattern's automaton is larger than stackStates, so the NFA runs
// on heap scratch.
func TestNFADFAAgree(t *testing.T) {
	patterns := []string{
		`\d{3}-[A-Z]{2}`, `(a|b)*abb`, `[a-c]{2,5}x?`, `a+b*c{1,3}`,
		`(ab|ba)+`, `\w+-\w+`, `[a-c]{2,80}(x|-)?`,
	}
	big := MustCompile(patterns[len(patterns)-1])
	if n := len(big.nfa.states); n <= stackStates {
		t.Fatalf("last pattern has %d NFA states, want more than stackStates (%d)", n, stackStates)
	}
	if !big.MatchNFA(stringRepeat("abc", 26)+"x") || big.MatchNFA(stringRepeat("a", 81)) {
		t.Errorf("%s: wrong verdict at the repeat bounds on heap scratch", big)
	}
	for _, p := range patterns {
		re := MustCompile(p)
		dfa, err := re.ToDFA()
		if err != nil {
			t.Fatalf("ToDFA(%q): %v", p, err)
		}
		f := func(bs []byte) bool {
			// Map bytes to a small alphabet so matches are likely.
			rs := make([]rune, len(bs))
			for i, b := range bs {
				rs[i] = rune("abcx-012ABZ"[int(b)%11])
			}
			s := string(rs)
			return re.MatchNFA(s) == dfa.Match(s)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("NFA/DFA disagree for %q: %v", p, err)
		}
	}
}

// TestNFAMatchAllocatesNothing checks that matching an automaton that
// fits in stackStates keeps its state sets on the stack.
func TestNFAMatchAllocatesNothing(t *testing.T) {
	re := MustCompile(`\d{3}-[A-Z]{2}`)
	for _, s := range []string{"926-AA", "926-A", "x"} {
		if n := testing.AllocsPerRun(100, func() { re.MatchNFA(s) }); n != 0 {
			t.Errorf("MatchNFA(%q): %.1f allocs, want 0", s, n)
		}
	}
}

func TestDFAStateCount(t *testing.T) {
	re := MustCompile(`(a|b)*abb`)
	dfa, err := re.ToDFA()
	if err != nil {
		t.Fatal(err)
	}
	// The classic dragon-book example yields 4 states.
	if dfa.NumStates() != 4 {
		t.Errorf("(a|b)*abb DFA states: got %d, want 4", dfa.NumStates())
	}
}

func TestLargeBoundedRepeat(t *testing.T) {
	re := MustCompile(`a{1,100}`)
	if !re.MatchString(stringRepeat("a", 100)) || re.MatchString(stringRepeat("a", 101)) {
		t.Errorf("bounded repeat boundary wrong")
	}
}

func stringRepeat(s string, n int) string {
	out := make([]byte, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return string(out)
}
