package validator

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/xsd"
)

// idTable is a document's ID/IDREF state: the IDs seen so far, the IDREFs
// awaiting resolution at document end and a journal of every ID
// occurrence in document order. The journal serves two needs:
//
//   - the frame machine validates an element's children before its
//     content model can reject them, and then must forget their IDs and
//     IDREFs exactly as if they had never been seen (mark/rollback);
//   - a parallel sub-run sees only its chunk of siblings, and its IDs are
//     added to the document's table in child order (join).
//
// One table may serve several machines of one document in turn: the
// token stream hands its table to the sub-machine that replays a
// buffered subtree.
type idTable struct {
	ids     map[string]string // normalized ID -> path of its first declaration
	refs    []pendingRef
	journal []idEvent
	off     bool // Options.SkipIDChecks: record nothing
}

// pendingRef is an IDREF awaiting resolution.
type pendingRef struct {
	id   string
	path string
}

// idEvent is one journaled ID occurrence. The path of a first occurrence
// is the table's entry for it.
type idEvent struct {
	id  string // whitespace-normalized ID value
	dup bool
}

// idMark is a point in the table's history to roll back to.
type idMark struct{ journal, refs int }

// kind returns the ID-family built-in st derives from ("ID", "IDREF" or
// "IDREFS"), or "" when it is none of them or ID checks are off.
func (t *idTable) kind(st *xsd.SimpleType) string {
	if t.off {
		return ""
	}
	if b := st.PrimitiveBuiltin(); b != nil && (b.Name == "ID" || b.Name == "IDREF" || b.Name == "IDREFS") {
		return b.Name
	}
	return ""
}

// add records one value of an ID-family type found at path. A repeated ID
// is reported to out; references wait for resolve.
func (t *idTable) add(kind, lexical, path string, out *[]Violation) {
	if t.off {
		return
	}
	switch kind {
	case "ID":
		norm := joinFields(lexical)
		prev, dup := t.ids[norm]
		t.journal = append(t.journal, idEvent{id: norm, dup: dup})
		if dup {
			report(out, path, fmt.Sprintf("duplicate ID %q (first declared at %s)", norm, prev))
			return
		}
		if t.ids == nil {
			t.ids = map[string]string{}
		}
		t.ids[norm] = path
	case "IDREF":
		t.refs = append(t.refs, pendingRef{id: joinFields(lexical), path: path})
	case "IDREFS":
		for _, ref := range strings.Fields(lexical) {
			t.refs = append(t.refs, pendingRef{id: ref, path: path})
		}
	}
}

// joinFields returns strings.Join(strings.Fields(s), " "): an ID or IDREF
// value as the table keys it, split where IDREFS values are split. A
// value already in that form is returned as it is, without allocating.
func joinFields(s string) string {
	space := true // a space here would be leading or doubled
	for _, r := range s {
		isSpace := unicode.IsSpace(r)
		if isSpace && (r != ' ' || space) {
			return strings.Join(strings.Fields(s), " ")
		}
		space = isSpace
	}
	if space && s != "" {
		return strings.Join(strings.Fields(s), " ")
	}
	return s
}

func (t *idTable) mark() idMark { return idMark{len(t.journal), len(t.refs)} }

// rollback forgets the IDs and IDREFs recorded since m.
func (t *idTable) rollback(m idMark) {
	for _, ev := range t.journal[m.journal:] {
		if !ev.dup {
			delete(t.ids, ev.id)
		}
	}
	t.journal = t.journal[:m.journal]
	t.refs = t.refs[:m.refs]
}

// resolve reports every pending IDREF that names no ID (document end).
func (t *idTable) resolve(out *[]Violation) {
	for _, p := range t.refs {
		if _, ok := t.ids[p.id]; !ok {
			report(out, p.path, fmt.Sprintf("IDREF %q does not match any ID", p.id))
		}
	}
}

// join adds a sub-run's IDs and IDREFs to t as if its subtree had been
// walked with t. A duplicate within the sub-run already cites its first
// declaration, which t does not hold. join reports false when the sub-run
// declared an ID t already holds: the sequential walk would have reported
// that duplicate inside the sub-run's violations, so the caller must
// discard the joined result.
func (t *idTable) join(sub *idTable) bool {
	for _, ev := range sub.journal {
		if !ev.dup {
			if _, dup := t.ids[ev.id]; dup {
				return false
			}
			if t.ids == nil {
				t.ids = map[string]string{}
			}
			t.ids[ev.id] = sub.ids[ev.id]
		}
		t.journal = append(t.journal, ev)
	}
	t.refs = append(t.refs, sub.refs...)
	return true
}
