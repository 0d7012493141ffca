package xsdregex

// Thompson NFA construction and simulation.

// nfaState is one NFA state. Each state has at most one character-set
// transition plus epsilon transitions, which is all Thompson construction
// needs.
type nfaState struct {
	// set is the label of the character transition; nil when the state
	// has only epsilon edges.
	set *CharSet
	// out is the target of the character transition.
	out int
	// eps are epsilon transition targets.
	eps []int
	// accept marks the final state.
	accept bool
}

// nfa is a compiled Thompson automaton.
type nfa struct {
	states []nfaState
	start  int
}

// nfaBuilder accumulates states.
type nfaBuilder struct {
	states []nfaState
}

func (b *nfaBuilder) add() int {
	b.states = append(b.states, nfaState{out: -1})
	return len(b.states) - 1
}

// frag is an NFA fragment with one entry and one exit state.
type frag struct{ in, out int }

// compileNFA builds the Thompson NFA for the AST.
func compileNFA(n Node) *nfa {
	b := &nfaBuilder{}
	f := b.compile(n)
	b.states[f.out].accept = true
	return &nfa{states: b.states, start: f.in}
}

func (b *nfaBuilder) compile(n Node) frag {
	switch x := n.(type) {
	case Empty:
		s := b.add()
		return frag{s, s}
	case Chars:
		in := b.add()
		out := b.add()
		set := x.Set
		b.states[in].set = &set
		b.states[in].out = out
		return frag{in, out}
	case Concat:
		cur := b.compile(x.Items[0])
		for _, item := range x.Items[1:] {
			next := b.compile(item)
			b.states[cur.out].eps = append(b.states[cur.out].eps, next.in)
			cur = frag{cur.in, next.out}
		}
		return cur
	case Alt:
		in := b.add()
		out := b.add()
		for _, alt := range x.Alts {
			f := b.compile(alt)
			b.states[in].eps = append(b.states[in].eps, f.in)
			b.states[f.out].eps = append(b.states[f.out].eps, out)
		}
		return frag{in, out}
	case Repeat:
		return b.compileRepeat(x)
	default:
		panic("xsdregex: unknown AST node")
	}
}

// repeatExpandLimit bounds how far bounded quantifiers are unrolled. The
// XSD dialect allows {n,m} with large n; unrolling is fine for the counts
// seen in schemas, and the limit keeps adversarial patterns in check.
const repeatExpandLimit = 4096

func (b *nfaBuilder) compileRepeat(x Repeat) frag {
	// {0,-1} (star) and {1,-1} (plus) get the classic constructions;
	// bounded counts are unrolled: sub{n,m} = sub^n (sub?)^(m-n),
	// sub{n,} = sub^n sub*.
	star := func(sub Node) frag {
		in := b.add()
		out := b.add()
		f := b.compile(sub)
		b.states[in].eps = append(b.states[in].eps, f.in, out)
		b.states[f.out].eps = append(b.states[f.out].eps, f.in, out)
		return frag{in, out}
	}
	min, max := x.Min, x.Max
	if min > repeatExpandLimit {
		min = repeatExpandLimit
	}
	if max > repeatExpandLimit {
		max = repeatExpandLimit
	}
	var parts []frag
	for i := 0; i < min; i++ {
		parts = append(parts, b.compile(x.Sub))
	}
	switch {
	case max < 0:
		parts = append(parts, star(x.Sub))
	default:
		for i := min; i < max; i++ {
			f := b.compile(x.Sub)
			// Make optional: eps from entry to exit.
			b.states[f.in].eps = append(b.states[f.in].eps, f.out)
			parts = append(parts, f)
		}
	}
	if len(parts) == 0 {
		s := b.add()
		return frag{s, s}
	}
	cur := parts[0]
	for _, next := range parts[1:] {
		b.states[cur.out].eps = append(b.states[cur.out].eps, next.in)
		cur = frag{cur.in, next.out}
	}
	return cur
}

// stackStates is the largest automaton whose state sets match keeps in
// fixed-size arrays on its stack. Larger ones (long bounded repeats) get
// heap scratch per call.
const stackStates = 128

// addClosure adds s and everything epsilon-reachable from it to the set,
// listing each added state at list[n:]; it returns the new length. The
// list has room for every state, and each is added at most once. It
// writes through an index rather than appending through a pointer, which
// would move match's stack arrays to the heap.
func (m *nfa) addClosure(s int, set []bool, list []int, n int) int {
	if set[s] {
		return n
	}
	set[s] = true
	list[n] = s
	n++
	for _, e := range m.states[s].eps {
		n = m.addClosure(e, set, list, n)
	}
	return n
}

// match runs the NFA over input and reports whether the whole string is
// accepted. It simulates with two state sets, each a bitset plus a list
// of its members; for automata up to stackStates they live on the stack,
// so a match allocates nothing.
func (m *nfa) match(input string) bool {
	var curA, nextA [stackStates]bool
	var curLA, nextLA [stackStates]int
	k := len(m.states)
	cur, next, curList, nextList := curA[:0], nextA[:0], curLA[:0], nextLA[:0]
	if k <= stackStates {
		cur, next, curList, nextList = cur[:k], next[:k], curList[:k], nextList[:k]
	} else {
		cur, next = make([]bool, k), make([]bool, k)
		curList, nextList = make([]int, k), make([]int, k)
	}
	nc := m.addClosure(m.start, cur, curList, 0)
	for _, r := range input {
		if nc == 0 {
			return false
		}
		clear(next)
		nn := 0
		for _, s := range curList[:nc] {
			st := &m.states[s]
			if st.set != nil && st.set.Contains(r) {
				nn = m.addClosure(st.out, next, nextList, nn)
			}
		}
		cur, next = next, cur
		curList, nextList = nextList, curList
		nc = nn
	}
	for _, s := range curList[:nc] {
		if m.states[s].accept {
			return true
		}
	}
	return false
}
