package bind

// The streaming decode path: the decoder (decode.go) attached to the
// token-stream driver of the frame machine. The DOM replay fires the same
// events, so both paths build identical values; this one builds no tree,
// and memory stays O(depth + output) apart from subtrees the validator
// buffers for identity constraints or interpreted content models, which it
// replays with the decoder still attached.

import (
	"context"
	"io"

	"repro/internal/validator"
)

// DecodeReader validates a document from r through the streaming path and
// decodes it in the same pass. The Result is the full verdict; the Value
// is nil when the document is invalid. The error reports I/O-independent
// internal failures only (the verdict owns everything schema-related).
func (b *Binder) DecodeReader(ctx context.Context, r io.Reader) (*Value, *validator.Result, error) {
	d := &decoder{}
	res, err := b.sv.ValidateReaderEvents(ctx, r, d)
	if err != nil {
		return nil, nil, err
	}
	return d.finish(res)
}

// DecodeStreamBytes is DecodeReader over an in-memory document.
func (b *Binder) DecodeStreamBytes(src []byte) (*Value, *validator.Result, error) {
	d := &decoder{}
	return d.finish(b.sv.ValidateBytesEvents(src, d))
}
