package bind

// Support surface for ahead-of-time generated binding code (the validator
// back end of internal/codegen). Generated packages build Value trees with
// specialized straight-line walks, but delegate cold paths — xsi:type
// substitutions, declarations pruned out of the generated code — to the
// generic decoder (Binder.DecodeElement), and reuse the canonical
// serializer and mixed-content merge rule so their output is
// byte-identical to the interpreted path.

import "repro/internal/xsd"

// SetType sets the effective governing type generated decoders record on
// the values they build (the generic decoder sets it internally).
func (v *Value) SetType(t xsd.Type) { v.typ = t }

// AppendText adds character data to a mixed-content segment list with the
// canonical merge rule (adjacent text coalesced, empty runs dropped).
func AppendText(segs []Segment, data string) []Segment { return appendText(segs, data) }
