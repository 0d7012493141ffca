package validator

// Streaming observer hook: a second consumer for the streaming pass.
//
// The streaming validator already computes, frame by frame, everything a
// schema-directed decoder needs — the governing declaration for every
// element (after substitution and xsi:type resolution), the parsed simple
// value for every text leaf, and the exact boundaries of unvalidated
// wildcard subtrees. StreamEvents exposes those facts as callbacks so a
// consumer (internal/bind) can build typed values in the same O(depth)
// pass, without re-deriving any of it and without the validator knowing
// anything about binding.
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

// StreamEvents receives structural callbacks during a streaming validation
// pass. Implementations must not retain the *xmlparser.Token or the
// *dom.Element beyond the call: tokens are reused by the decoder loop and
// fallback elements live in a pooled document that is released when the
// callback returns.
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
	// element, one call per text or CDATA token, in document order.
	MixedText(data string)

	// RawToken fires for every token of a skipped wildcard subtree (a lax
	// wildcard match with no global declaration), starting with the
	// subtree's own start tag. The consumer sees the raw token stream and
	// may rebuild the fragment; the validator guarantees nothing about it.
	RawToken(tok *xmlparser.Token)

	// FallbackElement fires when a subtree the streaming path buffered
	// for replay (identity constraints, non-Glushkov models) has been
	// validated. root is the buffered subtree with the
	// in-scope namespace bindings grafted on; it is released after the
	// callback returns. No OpenElement/CloseElement pair is delivered for
	// elements inside a fallback subtree.
	FallbackElement(decl *xsd.ElementDecl, root *dom.Element, wildcard bool)
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
