package validator

// Event observer hook: the frame machine's second consumer.
//
// The frame machine already computes, frame by frame, everything a
// schema-directed decoder needs — the governing declaration for every
// element (after substitution and xsi:type resolution), the parsed simple
// value for every text leaf, and the exact boundaries of unvalidated
// wildcard subtrees. StreamEvents exposes those facts as callbacks so a
// consumer (internal/bind) can build typed values in the same pass,
// without re-deriving any of it and without the validator knowing
// anything about binding.
//
// Both drivers fire the same events: the token loop (ValidateBytesEvents,
// ValidateReaderEvents) and the DOM replay (ValidateDocumentEvents,
// ValidateElementEvents). A subtree the token stream buffers for replay
// (identity constraints, interpreted content models) is replayed with the
// observer attached, so its elements arrive as ordinary Open/Close pairs.
//
// Verdict parity is untouched: events are fired from the existing frame
// transitions and never alter them. On invalid documents the callback
// sequence still pairs every OpenElement with a CloseElement, so a
// consumer's stack stays balanced; whether to trust the partial structure
// is the consumer's call (bind discards it).

import (
	"context"
	"io"

	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// StreamEvents receives structural callbacks during a validation pass.
// Implementations must not retain the *xmlparser.Token, the
// *xsdtypes.Value or the *dom.Element beyond the call: tokens and the
// value slot are reused by the machine, and a raw element on the token
// stream lives in a pooled fragment released when the callback returns.
type StreamEvents interface {
	// OpenElement fires when a validated element opens. decl is the
	// governing declaration (after wildcard/substitution resolution), typ
	// the effective type (after xsi:type). nilled marks xsi:nil="true";
	// wildcard marks an element admitted by a content-model wildcard.
	OpenElement(decl *xsd.ElementDecl, typ xsd.Type, tok *xmlparser.Token, nilled, wildcard bool)

	// CloseElement fires when the matching element closes. val is the
	// parsed simple value for simple-typed and simple-content elements
	// (nil when the element has no simple value or its text failed to
	// parse — the document is invalid in that case).
	CloseElement(val *xsdtypes.Value)

	// MixedText fires for character data directly inside a mixed-content
	// element, one call per text or CDATA node, in document order.
	MixedText(data string)

	// RawElement fires for a skipped wildcard subtree (a lax wildcard
	// match with no global declaration). On the DOM replay root is the
	// element itself; on the token stream it is a fragment rebuilt from
	// the subtree's tokens the way dom.Parse builds nodes. The validator
	// guarantees nothing about its content.
	RawElement(root *dom.Element)
}

// ValidateReaderEvents is ValidateReaderContext with an event observer:
// ev receives the structural callbacks above while the verdict is computed
// exactly as without an observer.
func (sv *StreamValidator) ValidateReaderEvents(ctx context.Context, r io.Reader, ev StreamEvents) (*Result, error) {
	return sv.validate(ctx, xmlparser.NewReaderDecoder(r, nil), ev)
}

// ValidateBytesEvents is ValidateBytes with an event observer.
func (sv *StreamValidator) ValidateBytesEvents(src []byte, ev StreamEvents) *Result {
	res, _ := sv.validate(context.Background(), xmlparser.NewDecoder(src, nil), ev)
	return res
}

// ValidateDocumentEvents is ValidateDocument with an event observer: the
// tree counterpart of ValidateBytesEvents.
func (v *Validator) ValidateDocumentEvents(doc *dom.Document, ev StreamEvents) *Result {
	m := v.newMachine()
	m.events = ev
	return m.document(doc)
}

// ValidateElementEvents is ValidateElement with an event observer. wild is
// the wildcard flag OpenElement reports for el itself.
func (v *Validator) ValidateElementEvents(el *dom.Element, decl *xsd.ElementDecl, wild bool, ev StreamEvents) *Result {
	m := v.newMachine()
	m.events = ev
	m.enter(el, decl, wild, nil, "/"+el.TagName())
	m.ids.resolve(&m.res.Violations)
	return &m.res
}
