package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/validator"
)

// batchRequest is the body of POST /v1/validate-batch/{schema}: a set of
// XML documents carried as JSON strings, validated together under one
// admission slot and one deadline.
type batchRequest struct {
	Documents []string `json:"documents"`
}

// batchResult is one document's verdict, index-aligned with the request.
type batchResult struct {
	Valid      bool            `json:"valid"`
	Violations []violationJSON `json:"violations,omitempty"`
}

// batchResponse is the payload of POST /v1/validate-batch/{schema}.
type batchResponse struct {
	Schema        string        `json:"schema"`
	SchemaVersion int           `json:"schema_version"`
	Count         int           `json:"count"`
	Valid         int           `json:"valid"`
	Invalid       int           `json:"invalid"`
	Results       []batchResult `json:"results"`
	ElapsedNs     int64         `json:"elapsed_ns"`
}

// handleValidateBatch runs POST /v1/validate-batch/{schema}: the body is
// {"documents": ["<xml…>", …]} and the response carries one verdict per
// document, index-aligned. The whole set costs ONE admission — one
// shedding decision, one concurrency slot, one deadline — which is the
// point: at high document rates the per-request overhead (semaphore,
// headers, JSON framing) dominates small validations, and batching
// amortizes it the way validator.ValidateBatch already does in-process.
// Inside the slot the documents fan out across the validator's worker
// pool, so a batch uses the cores a single document cannot. Each worker
// parses and validates one document at a time on the token stream: no
// DOM is built, so a batch's peak memory beyond the documents' bytes is
// O(workers × depth) (plus subtrees buffered for identity constraints)
// rather than the sum of its trees, and the request deadline stops a
// batch in the middle of a document.
//
// The per-document verdict contract matches /v1/validate: a malformed
// document is valid:false with the parse error as its violation, never a
// request-level error. Request-level failures are the transport ones:
// unknown schema (404), malformed JSON or an empty/oversized set (400),
// body over the cap (413), shed (429), deadline (504).
func (s *Server) handleValidateBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("schema")
	entry, ok := s.reg.Get(name)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown schema %q", name)})
		return
	}
	series := s.metrics.Series(name, "batch")
	start := time.Now()
	var results []batchResult
	out, ok := s.withWorker(w, r, series, func(ctx context.Context, body io.Reader) outcome {
		data, err := io.ReadAll(body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return outcome{code: http.StatusRequestEntityTooLarge,
					errMsg: fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit)}
			}
			return outcome{code: http.StatusBadRequest, errMsg: fmt.Sprintf("reading request body: %v", err)}
		}
		var req batchRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return outcome{code: http.StatusBadRequest, errMsg: fmt.Sprintf("batch body is not JSON: %v", err)}
		}
		if len(req.Documents) == 0 {
			return outcome{code: http.StatusBadRequest, errMsg: "batch carries no documents"}
		}
		if len(req.Documents) > s.maxBatch {
			return outcome{code: http.StatusBadRequest,
				errMsg: fmt.Sprintf("batch carries %d documents, limit is %d", len(req.Documents), s.maxBatch)}
		}
		if ctx.Err() != nil {
			return outcome{code: http.StatusGatewayTimeout, errMsg: "request deadline exceeded"}
		}
		results = s.runBatch(ctx, entry.Stream, req.Documents)
		if results == nil {
			return outcome{code: http.StatusGatewayTimeout, errMsg: "request deadline exceeded"}
		}
		return outcome{}
	})
	if !ok {
		return
	}
	if out.code != 0 {
		series.Errors.Inc()
		s.writeJSON(w, out.code, errorResponse{Error: out.errMsg})
		return
	}
	series.Requests.Inc()
	series.Latency.Observe(time.Since(start))
	resp := batchResponse{
		Schema:        entry.Name,
		SchemaVersion: entry.Version,
		Count:         len(results),
		Results:       results,
		ElapsedNs:     int64(time.Since(start)),
	}
	for _, res := range results {
		if res.Valid {
			resp.Valid++
		} else {
			resp.Invalid++
		}
	}
	// Invalid meters documents, not requests: a batch of 100 with 3 bad
	// documents moves the series by 3, the same load 100 per-doc requests
	// would have produced.
	series.Invalid.Add(int64(resp.Invalid))
	s.writeJSON(w, http.StatusOK, resp)
}

// runBatch fans the documents through the stream validator's batch
// worker pool: each worker parses and validates one document straight
// from its bytes. A malformed document gets its parse error as the
// verdict (per-document parity with /v1/validate). A nil return means the
// context expired mid-batch.
func (s *Server) runBatch(ctx context.Context, sv *validator.StreamValidator, sources []string) []batchResult {
	srcs := make([][]byte, len(sources))
	for i, src := range sources {
		srcs[i] = []byte(src)
	}
	verdicts, err := sv.ValidateBatchContext(ctx, srcs)
	if err != nil {
		return nil
	}
	results := make([]batchResult, len(verdicts))
	for i, res := range verdicts {
		br := batchResult{Valid: res.OK()}
		for _, viol := range res.Violations {
			br.Violations = append(br.Violations, violationJSON{Path: viol.Path, Msg: viol.Msg})
		}
		results[i] = br
	}
	return results
}
