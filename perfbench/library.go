package main

import (
	"fmt"
	"runtime"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/gen/pogen"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// schemaEnv is one schema compiled for the library entry points.
type schemaEnv struct {
	schema *xsd.Schema
	v      *validator.Validator
	sv     *validator.StreamValidator
	binder *bind.Binder
}

// libEnv holds both benchmark schemas.
type libEnv struct {
	po, catalog *schemaEnv
}

func (e *libEnv) of(d *doc) *schemaEnv {
	if d.schema == "po" {
		return e.po
	}
	return e.catalog
}

func newSchemaEnv(key, src string) (*schemaEnv, error) {
	s, err := xsd.ParseSource(key, []byte(src), nil)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", key, err)
	}
	v := validator.New(s, nil)
	return &schemaEnv{schema: s, v: v, sv: v.Stream(), binder: bind.New(s, v)}, nil
}

func newLibEnv() (*libEnv, error) {
	po, err := newSchemaEnv("po.xsd", poXSD)
	if err != nil {
		return nil, err
	}
	cat, err := newSchemaEnv("catalog.xsd", catalogXSD)
	if err != nil {
		return nil, err
	}
	return &libEnv{po: po, catalog: cat}, nil
}

// entryPoint is one public way from document bytes to a verdict.
type entryPoint struct {
	name   string
	poOnly bool // the generated pogen package knows only the PO schema
	run    func(e *schemaEnv, src []byte) (*validator.Result, error)
}

// ingestEntries are the five entry points the ingest workload deals its
// documents to.
var ingestEntries = []entryPoint{
	{name: "validate_bytes", run: func(e *schemaEnv, src []byte) (*validator.Result, error) {
		doc, res := validator.ValidateBytes(e.schema, src)
		if doc != nil {
			doc.Release()
		}
		return res, nil
	}},
	{name: "dom_warm", run: domWarm},
	{name: "stream", run: streamBytes},
	{name: "pogen", poOnly: true, run: func(_ *schemaEnv, src []byte) (*validator.Result, error) {
		doc, res := pogen.ValidateBytes(src)
		if doc != nil {
			doc.Release()
		}
		return res, nil
	}},
	{name: "bind_json", run: func(e *schemaEnv, src []byte) (*validator.Result, error) {
		v, res, err := e.binder.DecodeStreamBytes(src)
		if err != nil {
			return nil, err
		}
		if res.OK() && len(e.binder.JSON(v)) == 0 {
			return nil, fmt.Errorf("bind: empty JSON for a valid document")
		}
		return res, nil
	}},
}

func domWarm(e *schemaEnv, src []byte) (*validator.Result, error) {
	doc, err := dom.Parse(src)
	if err != nil {
		return parseVerdict(err), nil
	}
	res := e.v.ValidateDocument(doc)
	doc.Release()
	return res, nil
}

func streamBytes(e *schemaEnv, src []byte) (*validator.Result, error) {
	return e.sv.ValidateBytes(src), nil
}

// parseVerdict mirrors validator.ValidateBytes: malformed input is a
// verdict with the parse error as its one violation.
func parseVerdict(err error) *validator.Result {
	return &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
}

// bulkEntries are the bulk workload's paths: streaming, the parallel
// walk, and the warm tree path they are both measured against.
var bulkEntries = []entryPoint{
	{name: "stream", run: streamBytes},
	{name: "parallel", run: func(e *schemaEnv, src []byte) (*validator.Result, error) {
		doc, res := validator.ParallelValidateBytes(e.schema, src, runtime.NumCPU())
		if doc != nil {
			doc.Release()
		}
		return res, nil
	}},
	{name: "dom_warm", run: domWarm},
}

// entriesFor lists the ingest entry points that accept schema's documents.
func entriesFor(schema string) []int {
	var out []int
	for i, ep := range ingestEntries {
		if schema == "po" || !ep.poOnly {
			out = append(out, i)
		}
	}
	return out
}

// checkVerdict compares one result with the document's known answer.
func checkVerdict(d *doc, res *validator.Result) error {
	switch {
	case res == nil:
		return fmt.Errorf("doc %d: no result", d.id)
	case d.valid() && !res.OK():
		return fmt.Errorf("doc %d (%s, %d): valid document rejected: %v", d.id, d.schema, d.size, res.Violations[0])
	case !d.valid() && res.OK():
		return fmt.Errorf("doc %d (%s, %s): defect not reported", d.id, d.schema, d.defect)
	case !d.valid() && res.Violations[0].Path != d.path:
		return fmt.Errorf("doc %d (%s, %s): first violation at %q, want %q (%s)",
			d.id, d.schema, d.defect, res.Violations[0].Path, d.path, res.Violations[0].Msg)
	}
	return nil
}

// oracleCheck proves the verdict checks can fail: for a valid and an
// invalid document of the corpus, a flipped verdict and a misplaced
// violation must each be reported as wrong, by the library check and by
// the HTTP one alike.
func oracleCheck(c *corpus) error {
	var good, bad *doc
	for _, d := range c.docs {
		if d.valid() && good == nil {
			good = d
		}
		if !d.valid() && bad == nil {
			bad = d
		}
	}
	if good == nil {
		return fmt.Errorf("corpus has no valid document")
	}
	if bad == nil {
		bad = &doc{schema: good.schema, defect: defFacet, path: "/purchaseOrder"}
	}
	violation := func(path string) *validator.Result {
		return &validator.Result{Violations: []validator.Violation{{Path: path, Msg: "injected"}}}
	}
	wrong := []struct {
		d   *doc
		res *validator.Result
	}{
		{good, violation("/")},
		{bad, &validator.Result{}},
		{bad, violation(bad.path + "/elsewhere")},
	}
	for i, w := range wrong {
		if checkVerdict(w.d, w.res) == nil {
			return fmt.Errorf("oracle accepted wrong verdict %d", i)
		}
		v := &verdictJSON{Valid: w.res.OK()}
		for _, x := range w.res.Violations {
			v.Violations = append(v.Violations, struct {
				Path string `json:"path"`
			}{x.Path})
		}
		if checkJSONVerdict(w.d, v) == nil {
			return fmt.Errorf("HTTP oracle accepted wrong verdict %d", i)
		}
	}
	if checkVerdict(good, &validator.Result{}) != nil || checkVerdict(bad, violation(bad.path)) != nil {
		return fmt.Errorf("oracle rejected a right verdict")
	}
	return nil
}
