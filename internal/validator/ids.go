package validator

import (
	"fmt"
	"strings"

	"repro/internal/xsd"
)

// idTable is a document's ID/IDREF state: the IDs seen so far, the IDREFs
// awaiting resolution at document end and, when journaled, a log of every
// ID occurrence in document order. The log serves two walks that see a
// document out of the sequential order:
//
//   - the stream validates an element's children before its content model
//     can reject them, and then must forget their IDs and IDREFs exactly as
//     if the DOM walk had never visited them (mark/rollback);
//   - a parallel sub-run sees only its chunk of siblings, and its IDs are
//     replayed against the document's table in child order (join).
//
// One table may serve several runs of one document in turn: the stream
// hands its table to the DOM run that validates a buffered subtree.
type idTable struct {
	ids       map[string]string // normalized ID -> path of its first declaration
	refs      []pendingRef
	journal   []idEvent
	journaled bool
	off       bool // Options.SkipIDChecks: record nothing
}

// pendingRef is an IDREF awaiting resolution.
type pendingRef struct {
	id   string
	path string
}

// idEvent is one journaled ID occurrence. The path of a first occurrence
// is the table's entry for it.
type idEvent struct {
	id string // whitespace-normalized ID value
	// vioIdx is len(*out) when the ID was added: where its duplicate
	// violation landed, or where one belongs if a join finds an earlier
	// declaration. Only parallel sub-runs, whose out is their result,
	// read it.
	vioIdx int
	dup    bool
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

// track records a value of type st found at path if st is ID-family.
func (t *idTable) track(st *xsd.SimpleType, lexical, path string, out *[]Violation) {
	if kind := t.kind(st); kind != "" {
		t.add(kind, lexical, path, out)
	}
}

// add records one value of an ID-family type found at path. A repeated ID
// is reported to out; references wait for resolve.
func (t *idTable) add(kind, lexical, path string, out *[]Violation) {
	if t.off {
		return
	}
	switch kind {
	case "ID":
		norm := strings.Join(strings.Fields(lexical), " ")
		prev, dup := t.ids[norm]
		if t.journaled {
			t.journal = append(t.journal, idEvent{id: norm, vioIdx: len(*out), dup: dup})
		}
		if dup {
			report(out, path, duplicateID(norm, prev))
			return
		}
		if t.ids == nil {
			t.ids = map[string]string{}
		}
		t.ids[norm] = path
	case "IDREF":
		t.refs = append(t.refs, pendingRef{id: strings.Join(strings.Fields(lexical), " "), path: path})
	case "IDREFS":
		for _, ref := range strings.Fields(lexical) {
			t.refs = append(t.refs, pendingRef{id: ref, path: path})
		}
	}
}

func duplicateID(id, first string) string {
	return fmt.Sprintf("duplicate ID %q (first declared at %s)", id, first)
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

// join merges a journaled sub-run's table into t as if its subtree had
// been walked with t, and returns the sub-run's violations adjusted to
// match: duplicates within the sub-run cite t's first declaration, and an
// ID the sub-run declared first but t already holds becomes a duplicate
// violation spliced in where the sequential walk would have reported it.
// The result is not capped; the caller checks the joined total.
func (t *idTable) join(sub *idTable, viols []Violation) []Violation {
	inserted := 0
	for _, ev := range sub.journal {
		idx := ev.vioIdx + inserted
		if ev.dup {
			if idx < len(viols) {
				viols[idx].Msg = duplicateID(ev.id, t.ids[ev.id])
			}
			continue
		}
		path := sub.ids[ev.id]
		if first, dup := t.ids[ev.id]; dup {
			viols = append(viols, Violation{})
			copy(viols[idx+1:], viols[idx:])
			viols[idx] = Violation{Path: path, Msg: duplicateID(ev.id, first)}
			inserted++
			continue
		}
		if t.ids == nil {
			t.ids = map[string]string{}
		}
		t.ids[ev.id] = path
	}
	t.refs = append(t.refs, sub.refs...)
	return viols
}
