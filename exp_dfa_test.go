package repro

// E10 — differential testing of the lazy-DFA content-model executor
// against the NFA position-set stepper. The DFA path must be
// observationally byte-identical: same leaf assignment for every accepted
// child, same rejection step, same MatchError positions and messages, on
// every content model of every bundled schema, over generated sequences
// and over the sibling sequences of the differential corpus's instances.

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/contentmodel"
	"repro/internal/schemas"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// bundledSchemas is every schema the repository ships: the paper's
// examples plus the streaming feature-coverage schema.
var bundledSchemas = map[string]string{
	"purchase-order":         schemas.PurchaseOrderXSD,
	"evolved-purchase-order": schemas.EvolvedPurchaseOrderXSD,
	"address-derivation":     schemas.AddressDerivationXSD,
	"namespaced-order":       schemas.NamespacedOrderXSD,
	"complex-groups":         schemas.ComplexGroupsXSD,
	"named-group":            schemas.NamedGroupXSD,
	"stream-features":        streamFeaturesXSD,
}

// schemaGlushkovs returns the Glushkov content models the schema compiles
// (ComplexType.Matcher) for every complex type reachable from its global
// components — the automata every validator walk steps.
func schemaGlushkovs(t *testing.T, s *xsd.Schema) []*contentmodel.Glushkov {
	t.Helper()
	var out []*contentmodel.Glushkov
	for _, ct := range schemaComplexTypes(s) {
		if g, ok := ct.Matcher(s).(*contentmodel.Glushkov); ok {
			out = append(out, g)
		}
	}
	return out
}

// schemaComplexTypes lists every complex type reachable from the schema's
// global components.
func schemaComplexTypes(s *xsd.Schema) []*xsd.ComplexType {
	seen := map[*xsd.ComplexType]bool{}
	var out []*xsd.ComplexType
	var visitType func(ty xsd.Type)
	var visitParticle func(p *xsd.Particle)
	visitType = func(ty xsd.Type) {
		ct, ok := ty.(*xsd.ComplexType)
		if !ok || ct == nil || seen[ct] {
			return
		}
		seen[ct] = true
		out = append(out, ct)
		visitParticle(ct.Particle)
	}
	visitParticle = func(p *xsd.Particle) {
		if p == nil {
			return
		}
		if p.Element != nil {
			visitType(p.Element.Type)
		}
		if p.Group != nil {
			for _, c := range p.Group.Particles {
				visitParticle(c)
			}
		}
	}
	for _, decl := range s.Elements {
		visitType(decl.Type)
	}
	for _, ty := range s.Types {
		visitType(ty)
	}
	return out
}

// trialStep reports whether a known-good prefix extended by next still
// steps (fresh NFA replay — a dead Run cannot be probed).
func trialStep(g *contentmodel.Glushkov, prefix []contentmodel.Symbol, next contentmodel.Symbol) bool {
	r := g.StartNFA()
	for _, s := range prefix {
		if _, err := r.Step(s); err != nil {
			return false
		}
	}
	_, err := r.Step(next)
	return err == nil
}

// generateSequences yields valid and invalid child sequences for a model:
// greedy valid walks over the model's alphabet, truncations, single-symbol
// substitutions, and random noise including foreign names.
func generateSequences(g *contentmodel.Glushkov, rng *rand.Rand) [][]contentmodel.Symbol {
	alpha := g.Alphabet()
	pool := append(append([]contentmodel.Symbol{}, alpha...),
		contentmodel.Symbol{Local: "zzz-unknown"},
		contentmodel.Symbol{Space: "urn:not-in-schema", Local: "alien"},
	)
	var seqs [][]contentmodel.Symbol
	for trial := 0; trial < 5; trial++ {
		var seq []contentmodel.Symbol
		for len(seq) < 8 {
			found := false
			for _, i := range rng.Perm(len(alpha)) {
				if trialStep(g, seq, alpha[i]) {
					seq = append(seq, alpha[i])
					found = true
					break
				}
			}
			if !found || rng.Intn(4) == 0 {
				break
			}
		}
		seqs = append(seqs, seq)
		if n := len(seq); n > 0 {
			mut := append([]contentmodel.Symbol{}, seq...)
			mut[rng.Intn(n)] = pool[rng.Intn(len(pool))]
			seqs = append(seqs, mut, seq[:rng.Intn(n)])
		}
	}
	for trial := 0; trial < 5; trial++ {
		var seq []contentmodel.Symbol
		for i, n := 0, rng.Intn(5); i < n; i++ {
			seq = append(seq, pool[rng.Intn(len(pool))])
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// diffRun drives one sequence through the DFA-backed and NFA runs and
// fails on any observable difference.
func diffRun(t *testing.T, label string, dr, nr *contentmodel.Run, seq []contentmodel.Symbol) {
	t.Helper()
	for i, s := range seq {
		dl, de := dr.Step(s)
		nl, ne := nr.Step(s)
		if (de == nil) != (ne == nil) {
			t.Fatalf("%s step %d (%v): dfa err=%v nfa err=%v", label, i, s, de, ne)
		}
		if de != nil {
			if de.Error() != ne.Error() || de.Index != ne.Index {
				t.Fatalf("%s step %d: errors diverged:\n  dfa: %v\n  nfa: %v", label, i, de, ne)
			}
			return
		}
		if dl != nl {
			t.Fatalf("%s step %d (%v): leaf diverged: %v vs %v", label, i, s, dl.Data, nl.Data)
		}
	}
	de, ne := dr.End(), nr.End()
	if (de == nil) != (ne == nil) {
		t.Fatalf("%s end: dfa err=%v nfa err=%v", label, de, ne)
	}
	if de != nil && de.Error() != ne.Error() {
		t.Fatalf("%s end errors diverged:\n  dfa: %v\n  nfa: %v", label, de, ne)
	}
}

// TestDFAMatchesNFA drives every bundled schema's content models through
// the DFA and NFA steppers with generated valid and invalid child
// sequences, twice per model so both the building and the memoized DFA
// paths are covered.
func TestDFAMatchesNFA(t *testing.T) {
	enabled := 0
	for name, src := range bundledSchemas {
		t.Run(name, func(t *testing.T) {
			schema, err := xsd.ParseString(src, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			models := schemaGlushkovs(t, schema)
			if len(models) == 0 {
				t.Fatalf("no Glushkov content models found")
			}
			rng := rand.New(rand.NewSource(0xd1f))
			for _, g := range models {
				if !g.DFAEnabled() {
					continue // UPA-ambiguous or wildcard-heavy: NFA-only by design
				}
				enabled++
				seqs := generateSequences(g, rng)
				for pass := 0; pass < 2; pass++ {
					for _, seq := range seqs {
						diffRun(t, t.Name(), g.Start(), g.StartNFA(), seq)
					}
				}
			}
		})
	}
	if enabled == 0 {
		t.Fatalf("no bundled content model had the DFA enabled — test is vacuous")
	}
}

// instanceSequences collects the child-name sequence of every element in
// the instances, read off the token stream so that a malformed instance
// still contributes the sequences of its well-formed prefix.
func instanceSequences(instances map[string]string) [][]contentmodel.Symbol {
	labels := make([]string, 0, len(instances))
	for label := range instances {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var out [][]contentmodel.Symbol
	for _, label := range labels {
		dec := xmlparser.NewDecoder([]byte(instances[label]), nil)
		var open [][]contentmodel.Symbol
		for {
			tok, err := dec.Next()
			if err != nil {
				break
			}
			switch tok.Kind {
			case xmlparser.KindStartElement:
				if n := len(open); n > 0 {
					open[n-1] = append(open[n-1], contentmodel.Symbol{Space: tok.Name.Space, Local: tok.Name.Local})
				}
				open = append(open, nil)
			case xmlparser.KindEndElement:
				out = append(out, open[len(open)-1])
				open = open[:len(open)-1]
			}
		}
		out = append(out, open...)
	}
	return out
}

// nfaMatch is Glushkov.Match computed on the NFA stepper.
func nfaMatch(g *contentmodel.Glushkov, seq []contentmodel.Symbol) ([]*contentmodel.Leaf, *contentmodel.MatchError) {
	r := g.StartNFA()
	var leaves []*contentmodel.Leaf
	for _, s := range seq {
		leaf, err := r.Step(s)
		if err != nil {
			return nil, err
		}
		leaves = append(leaves, leaf)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return leaves, nil
}

// diffSequences feeds every sequence to every automaton twice (building,
// then memoized DFA states), comparing the DFA-backed run with the NFA
// stepper step by step and Match with the NFA's batch result. It returns
// how many automata had a DFA attached.
func diffSequences(t *testing.T, models []*contentmodel.Glushkov, seqs [][]contentmodel.Symbol) int {
	t.Helper()
	enabled := 0
	for _, g := range models {
		if g.DFAEnabled() {
			enabled++
		}
		for pass := 0; pass < 2; pass++ {
			for _, seq := range seqs {
				diffRun(t, t.Name(), g.Start(), g.StartNFA(), seq)
				leaves, err := g.Match(seq)
				nleaves, nerr := nfaMatch(g, seq)
				if (err == nil) != (nerr == nil) || (err != nil && (err.Error() != nerr.Error() || err.Index != nerr.Index)) {
					t.Fatalf("Match %v: dfa err=%v nfa err=%v", seq, err, nerr)
				}
				for i := range nleaves {
					if leaves[i] != nleaves[i] {
						t.Fatalf("Match %v: leaf %d diverged", seq, i)
					}
				}
			}
		}
	}
	return enabled
}

// TestValidatorDFAParity drives the automata every validator walk steps
// (the schema's ComplexType.Matcher models) with the sibling sequences of
// the differential corpus (the E8 diffCases: every bundled schema with
// valid, invalid and malformed instances). Each sequence goes to every
// model of its schema, so most runs reject; DFA and NFA must agree on
// every step, every leaf and every error.
func TestValidatorDFAParity(t *testing.T) {
	enabled := 0
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			seqs := instanceSequences(tc.instances)
			if len(seqs) == 0 {
				t.Fatal("no sibling sequences in the instances")
			}
			enabled += diffSequences(t, schemaGlushkovs(t, schema), seqs)
		})
	}
	if enabled == 0 {
		t.Fatal("no content model had the DFA enabled — test is vacuous")
	}
}

// TestValidatorDFABudgetParity repeats the corpus on freshly compiled
// automata whose DFA may memoize only two states, so the mid-run fallback
// to NFA stepping is exercised on every longer sequence.
func TestValidatorDFABudgetParity(t *testing.T) {
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			var models []*contentmodel.Glushkov
			for _, ct := range schemaComplexTypes(schema) {
				g, err := contentmodel.CompileGlushkov(schema.CompileParticle(ct.Particle))
				if err != nil {
					continue // interpreter-compiled: no automaton to test
				}
				g.EnableDFA(contentmodel.NewInterner(), 2)
				models = append(models, g)
			}
			if diffSequences(t, models, instanceSequences(tc.instances)) == 0 {
				t.Fatal("no content model had the DFA enabled — test is vacuous")
			}
		})
	}
}
