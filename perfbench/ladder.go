package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bind"
	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/gen/pogen"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/validator"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdregex"
)

// The traced run. It measures the same corpus three ways:
//
//  1. the workload's own loop, alternately untraced and with a span
//     around every entry-point call, for trace.overhead_frac;
//  2. a ladder of rungs, each one public call of one layer, repeated
//     per document with a span per call, so a layer's self time is the
//     difference between adjacent rungs on the same documents (stream
//     validate minus tokenize, package ValidateBytes minus parse and
//     warm walk, handler minus library call, ...);
//  3. the registry and the HTTP server in process, for the serving
//     layers.
//
// Spans and counts stay in memory and are written to workDir at the end.

// ladderDocs caps how many corpus documents the ladder climbs; the
// corpus order is a seeded shuffle, so a prefix is a fair sample.
const ladderDocs = 100

// ladder runs rungs over a document set and records them in a tracer.
type ladder struct {
	tr   *tracer
	reps int
}

// rungFn is one rung: a single public call of one layer on a document.
type rungFn struct {
	name string
	fn   func(d *doc)
}

// rungs runs the given rungs on every document reps times, each call in
// its own span. The rungs are interleaved per document and repetition,
// so drift on the host hits adjacent rungs alike and their difference
// stays a layer's self time.
func (l *ladder) rungs(docs []*doc, fns ...rungFn) {
	if len(docs) == 0 {
		return
	}
	root := l.tr.begin("ladder."+fns[0].name, 0, -1)
	for r := 0; r < l.reps; r++ {
		for _, d := range docs {
			for _, f := range fns {
				id := l.tr.begin(f.name, root, d.id)
				f.fn(d)
				l.tr.end(id)
			}
		}
	}
	l.tr.end(root)
	for _, f := range fns {
		l.tr.count(f.name+".calls", int64(l.reps*len(docs)))
	}
}

// allocPerCall runs fn once per document and returns the bytes it
// allocated per call.
func allocPerCall(docs []*doc, fn func(d *doc)) float64 {
	runtime.GC()
	m0 := readMem()
	for _, d := range docs {
		fn(d)
	}
	m1 := readMem()
	return float64(m1.totalAlloc-m0.totalAlloc) / float64(len(docs))
}

// perDoc is the mean over documents of a rung's per-document median.
func (l *ladder) perDoc(name string) float64 {
	m := l.tr.rungMedians(name)
	if len(m) == 0 {
		return 0
	}
	return sumOver(m) / float64(len(m))
}

// self is the mean per-document difference between two adjacent rungs.
func (l *ladder) self(outer, inner string) float64 {
	tot, n := selfTime(l.tr.rungMedians(outer), l.tr.rungMedians(inner))
	if n == 0 {
		return 0
	}
	return tot / float64(n)
}

// selfPerByte is the rung difference per input byte.
func (l *ladder) selfPerByte(outer, inner string, docs []*doc) float64 {
	tot, _ := selfTime(l.tr.rungMedians(outer), l.tr.rungMedians(inner))
	return tot / float64(docBytes(docs))
}

func (l *ladder) perByte(name string, docs []*doc) float64 {
	return sumOver(l.tr.rungMedians(name)) / float64(docBytes(docs))
}

func docBytes(docs []*doc) int {
	n := 0
	for _, d := range docs {
		n += len(d.src)
	}
	return n
}

func filter(docs []*doc, keep func(*doc) bool) []*doc {
	var out []*doc
	for _, d := range docs {
		if keep(d) {
			out = append(out, d)
		}
	}
	return out
}

// schemaVariant derives the ladder's schema variants from a schema's
// text. "structure" turns every leaf type into xs:string and drops all
// facets, IDs and identity constraints; "facets" keeps simple types and
// facets but drops identity constraints and retypes ID/IDREF as NCName.
// The full schema is the third rung.
func schemaVariant(src, level string) string {
	src = identityRe.ReplaceAllString(src, "")
	if level == "facets" {
		return idTypeRe.ReplaceAllString(src, `type="xsd:NCName"`)
	}
	src = builtinTypeRe.ReplaceAllString(src, `type="xsd:string"`)
	src = builtinBaseRe.ReplaceAllString(src, `base="xsd:string"`)
	return facetRe.ReplaceAllString(src, "")
}

var (
	identityRe    = regexp.MustCompile(`(?s)<xsd:(?:key|keyref|unique)\b.*?</xsd:(?:key|keyref|unique)>`)
	idTypeRe      = regexp.MustCompile(`type="xsd:(?:ID|IDREF|IDREFS)"`)
	builtinTypeRe = regexp.MustCompile(`type="xsd:\w+"`)
	builtinBaseRe = regexp.MustCompile(`base="xsd:\w+"`)
	facetRe       = regexp.MustCompile(`<xsd:(?:pattern|minInclusive|maxInclusive|minExclusive|maxExclusive|fractionDigits|totalDigits|length|minLength|maxLength|enumeration)\b[^>]*/>`)
)

// replay is a document's content-model and simple-type work, collected
// by walking it against the schema, so each can be re-run alone.
type replay struct {
	models   []modelCall
	values   []valueCall
	patterns []patternCall
	children int
}

type modelCall struct {
	m    contentmodel.Matcher
	syms []contentmodel.Symbol
}

type valueCall struct {
	st  *xsd.SimpleType
	lex string
}

type patternCall struct {
	re  *xsdregex.Regexp
	lex string
}

// collectReplay walks a valid document, resolving each element's type
// (xsi:type included) and each child sequence through the schema's own
// matchers.
func collectReplay(s *xsd.Schema, doc *dom.Document) (*replay, error) {
	root := doc.DocumentElement()
	decl, ok := s.LookupElement(xsd.QName{Space: root.NamespaceURI(), Local: root.LocalName()})
	if !ok {
		return nil, fmt.Errorf("no declaration for root %s", root.LocalName())
	}
	rp := &replay{}
	return rp, rp.visit(s, root, decl.Type)
}

func (rp *replay) value(st *xsd.SimpleType, lex string) {
	rp.values = append(rp.values, valueCall{st, lex})
	for t := st; t != nil; t = t.Base {
		for _, re := range t.Facets.Patterns {
			rp.patterns = append(rp.patterns, patternCall{re, lex})
		}
	}
}

func (rp *replay) visit(s *xsd.Schema, el *dom.Element, t xsd.Type) error {
	if xt := el.GetAttributeNS(xsd.XSINamespace, "type"); xt != "" {
		named, ok := s.LookupType(xsd.QName{Local: xt})
		if !ok {
			return fmt.Errorf("unknown xsi:type %q", xt)
		}
		t = named
	}
	switch t := t.(type) {
	case *xsd.SimpleType:
		rp.value(t, el.TextContent())
	case *xsd.ComplexType:
		for _, a := range el.Attributes() {
			if validator.IsMetaAttr(a) {
				continue
			}
			n := a.Name()
			if use := t.FindAttributeUse(xsd.QName{Space: n.Space, Local: n.Local}); use != nil {
				rp.value(use.Decl.Type, a.NodeValue())
			}
		}
		switch t.Kind {
		case xsd.ContentSimple:
			rp.value(t.SimpleContentType, el.TextContent())
		case xsd.ContentElementOnly, xsd.ContentMixed:
			kids := el.ChildElements()
			syms := make([]contentmodel.Symbol, len(kids))
			for i, k := range kids {
				syms[i] = contentmodel.Symbol{Space: k.NamespaceURI(), Local: k.LocalName()}
			}
			m := t.Matcher(s)
			leaves, merr := m.Match(syms)
			if merr != nil {
				return fmt.Errorf("replay: %v", merr)
			}
			rp.models = append(rp.models, modelCall{m, syms})
			rp.children += len(syms)
			for i, k := range kids {
				cd, ok := leaves[i].Data.(*xsd.ElementDecl)
				if !ok {
					return fmt.Errorf("replay: child %s matched no element declaration", k.LocalName())
				}
				if err := rp.visit(s, k, cd.Type); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// countWriter counts the bytes written to it (the in-process server's
// request log).
type countWriter struct{ n atomic.Int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return len(p), nil
}

// layerStats is what the ladder measured, as per-layer metrics.
type layerStats map[string]metric

func (s layerStats) put(name, unit string, v float64) { s[name] = metric{Value: v, Unit: unit} }

// climb runs every rung over docs, a sample of c, and returns the
// per-layer metrics.
func climb(o options, c *corpus, env *libEnv, tr *tracer, docs []*doc, reps int) (layerStats, error) {
	l := &ladder{tr: tr, reps: reps}
	st := layerStats{}
	valid := filter(docs, (*doc).valid)
	invalid := filter(docs, func(d *doc) bool { return !d.valid() })
	if len(invalid) == 0 {
		// A workload of valid documents only: the invalid-walk rung runs
		// on one-defect documents of the same schemas, capped at 1000
		// items or entries.
		r := rand.New(rand.NewSource(o.seed))
		for _, d := range docs {
			x := *d
			x.defect = defFacet
			if d.schema == "po" {
				x.src, x.path = genPO(r, min(d.size, 1000), false, defFacet)
			} else {
				x.defect = defIDRef
				x.src, x.path = genCatalog(r, min(d.size, 1000), 60, defIDRef)
			}
			invalid = append(invalid, &x)
		}
	}
	parsed := map[*doc]*dom.Document{}
	parse := func(set []*doc) error {
		for _, d := range set {
			if parsed[d] != nil {
				continue
			}
			doc, err := dom.Parse(d.src)
			if err != nil {
				return fmt.Errorf("doc %d: %w", d.id, err)
			}
			parsed[d] = doc
		}
		return nil
	}
	if err := parse(docs); err != nil {
		return nil, err
	}
	if err := parse(invalid); err != nil {
		return nil, err
	}

	// Tokenize, parse, walk: the bytes-to-verdict spine.
	tokenize := func(d *doc) int64 {
		var n int64
		dec := xmlparser.NewDecoder(d.src, nil)
		for {
			tok, err := dec.Token()
			if tok == nil || err != nil {
				return n
			}
			n++
		}
	}
	parseRelease := func(d *doc) {
		if doc, err := dom.Parse(d.src); err == nil {
			doc.Release()
		}
	}
	warm := func(d *doc) { domWarm(env.of(d), d.src) } //nolint:errcheck // verdicts checked by the measured loop
	stream := func(d *doc) { env.of(d).sv.ValidateBytes(d.src) }
	l.rungs(docs,
		rungFn{"xmlparser.tokenize", func(d *doc) { tokenize(d) }},
		rungFn{"dom.parse", parseRelease},
		rungFn{"validator.stream", stream},
		rungFn{"validator.dom_warm", warm},
		rungFn{"validator.package", func(d *doc) {
			if doc, _ := validator.ValidateBytes(env.of(d).schema, d.src); doc != nil {
				doc.Release()
			}
		}})
	l.rungs(valid,
		rungFn{"validator.walk", func(d *doc) { env.of(d).v.ValidateDocument(parsed[d]) }},
		rungFn{"validator.parallel", func(d *doc) { env.of(d).v.ParallelValidate(parsed[d], runtime.NumCPU()) }})
	l.rungs(invalid, rungFn{"validator.walk_invalid", func(d *doc) { env.of(d).v.ValidateDocument(parsed[d]) }})
	pos := filter(valid, func(d *doc) bool { return d.schema == "po" })
	l.rungs(pos, rungFn{"gen.pogen_validate", func(d *doc) { pogen.Validate(parsed[d]) }})
	var tokens int64
	for _, d := range docs {
		tokens += tokenize(d)
	}
	tr.count("xmlparser.tokens", tokens)

	st.put("xmlparser.tokenize_ns_per_byte", "ns/B", l.perByte("xmlparser.tokenize", docs))
	st.put("xmlparser.tokens_per_doc", "count", float64(tokens)/float64(len(docs)))
	st.put("dom.parse_self_ns_per_byte", "ns/B", l.selfPerByte("dom.parse", "xmlparser.tokenize", docs))
	st.put("dom.alloc_bytes_per_doc", "B", allocPerCall(docs, parseRelease))
	st.put("validator.cold_setup_us_per_doc", "us", l.self("validator.package", "validator.dom_warm")/1e3)
	st.put("validator.walk_us_per_doc", "us", l.perDoc("validator.walk")/1e3)
	st.put("validator.invalid_us_per_doc", "us", l.perDoc("validator.walk_invalid")/1e3)
	st.put("validator.stream_self_ns_per_byte", "ns/B", l.selfPerByte("validator.stream", "xmlparser.tokenize", docs))
	st.put("validator.stream.alloc_bytes_per_doc", "B", allocPerCall(docs, stream))
	st.put("validator.dom.alloc_bytes_per_doc", "B", allocPerCall(docs, warm))
	st.put("validator.parallel_speedup", "x", l.perDoc("validator.walk")/l.perDoc("validator.parallel"))
	st.put("gen.pogen_validate_us_per_doc", "us", l.perDoc("gen.pogen_validate")/1e3)

	// Stream against DOM memory at a small and a large purchase order: a
	// streaming path that allocates more than the tree path at 1000 items,
	// or more per item as documents grow, shows here.
	for _, n := range []int{10, 1000} {
		p := []*doc{c.probes[n]}
		st.put(fmt.Sprintf("validator.stream.alloc_bytes_po%d", n), "B", allocPerCall(p, func(d *doc) { env.po.sv.ValidateBytes(d.src) }))
		st.put(fmt.Sprintf("validator.dom.alloc_bytes_po%d", n), "B", allocPerCall(p, func(d *doc) { domWarm(env.po, d.src) })) //nolint:errcheck // allocation only
	}

	// Structure, facets, identity: the same walk over schema variants.
	variants := map[string]*libEnv{}
	for _, level := range []string{"structure", "facets"} {
		po, err := newSchemaEnv("po-"+level+".xsd", schemaVariant(poXSD, level))
		if err != nil {
			return nil, err
		}
		cat, err := newSchemaEnv("catalog-"+level+".xsd", schemaVariant(catalogXSD, level))
		if err != nil {
			return nil, err
		}
		variants[level] = &libEnv{po: po, catalog: cat}
	}
	variants["full"] = env
	var variantRungs []rungFn
	for _, level := range []string{"structure", "facets", "full"} {
		ve := variants[level]
		for _, d := range valid {
			if res := ve.of(d).v.ValidateDocument(parsed[d]); !res.OK() {
				return nil, fmt.Errorf("%s variant rejected valid doc %d: %v", level, d.id, res.Violations[0])
			}
		}
		variantRungs = append(variantRungs, rungFn{"variant." + level, func(d *doc) { ve.of(d).v.ValidateDocument(parsed[d]) }})
	}
	l.rungs(valid, variantRungs...)
	st.put("validator.structure_us_per_doc", "us", l.perDoc("variant.structure")/1e3)
	st.put("xsdtypes.facets_us_per_doc", "us", l.self("variant.facets", "variant.structure")/1e3)
	st.put("validator.identity_us_per_doc", "us", l.self("variant.full", "variant.facets")/1e3)

	// Content models and simple types replayed alone.
	replays := map[*doc]*replay{}
	var children, values, patterns int
	for _, d := range valid {
		rp, err := collectReplay(env.of(d).schema, parsed[d])
		if err != nil {
			return nil, fmt.Errorf("doc %d: %w", d.id, err)
		}
		replays[d] = rp
		children += rp.children
		values += len(rp.values)
		patterns += len(rp.patterns)
	}
	var mismatches int
	l.rungs(valid,
		rungFn{"contentmodel.match", func(d *doc) {
			for _, mc := range replays[d].models {
				if _, err := mc.m.Match(mc.syms); err != nil {
					mismatches++
				}
			}
		}},
		rungFn{"xsdtypes.validate", func(d *doc) {
			for _, vc := range replays[d].values {
				if vc.st.Validate(vc.lex) != nil {
					mismatches++
				}
			}
		}},
		rungFn{"xsdregex.match", func(d *doc) {
			for _, pc := range replays[d].patterns {
				if !pc.re.MatchString(pc.lex) {
					mismatches++
				}
			}
		}})
	if mismatches > 0 {
		return nil, fmt.Errorf("%d replayed content models or values failed on valid documents", mismatches)
	}
	st.put("contentmodel.match_ns_per_child", "ns", sumOver(tr.rungMedians("contentmodel.match"))/float64(children))
	st.put("xsdtypes.validate_ns_per_value", "ns", sumOver(tr.rungMedians("xsdtypes.validate"))/float64(values))
	st.put("xsdregex.match_ns_per_value", "ns", sumOver(tr.rungMedians("xsdregex.match"))/float64(patterns))
	tr.count("contentmodel.children", int64(children))
	tr.count("xsdtypes.values", int64(values))
	tr.count("xsdregex.values", int64(patterns))

	// Binding: decode (one stream pass) minus stream validation, JSON,
	// and the reverse direction.
	values2 := map[*doc]*bind.Value{}
	jsons := map[*doc][]byte{}
	for _, d := range valid {
		e := env.of(d)
		v, res, err := e.binder.DecodeStreamBytes(d.src)
		if err != nil || !res.OK() {
			return nil, fmt.Errorf("doc %d: bind decode failed", d.id)
		}
		values2[d] = v
		jsons[d] = e.binder.JSON(v)
	}
	encode := func(d *doc) {
		b := env.of(d).binder
		if v, err := b.FromJSON(jsons[d]); err == nil {
			b.Marshal(v) //nolint:errcheck // timing only; serve checks encode output
		}
	}
	l.rungs(valid,
		rungFn{"bind.stream_baseline", stream},
		rungFn{"bind.decode_stream", func(d *doc) { env.of(d).binder.DecodeStreamBytes(d.src) }}, //nolint:errcheck // checked above
		rungFn{"bind.json", func(d *doc) { env.of(d).binder.JSON(values2[d]) }},
		rungFn{"bind.encode", encode})
	st.put("bind.decode_self_us_per_doc", "us", l.self("bind.decode_stream", "bind.stream_baseline")/1e3)
	st.put("bind.json_us_per_doc", "us", l.perDoc("bind.json")/1e3)
	st.put("bind.encode_us_per_doc", "us", l.perDoc("bind.encode")/1e3)

	// Schema compile and the registry over the serve directory.
	var compile []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := xsd.ParseSource("po.xsd", []byte(poXSD), nil); err != nil {
			return nil, err
		}
		if _, err := xsd.ParseSource("catalog.xsd", []byte(catalogXSD), nil); err != nil {
			return nil, err
		}
		compile = append(compile, float64(time.Since(t))/2)
	}
	st.put("xsd.compile_ms_per_schema", "ms", median(compile)/1e6)
	st.put("validator.compiled_models", "count", float64(env.po.v.CompiledModels()+env.catalog.v.CompiledModels()))
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("ladder-%d-%d", o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch directory under the build dir
	if err := writeServeDir(dir); err != nil {
		return nil, err
	}
	var cold, reload []float64
	var changed int
	var reg *registry.Registry
	for i := 0; i < 3; i++ {
		reg = registry.New(dir, nil)
		sp := tr.begin("registry.cold_load", 0, i)
		t := time.Now()
		n, err := reg.Reload()
		cold = append(cold, float64(time.Since(t)))
		tr.end(sp)
		if err != nil || n != graphSchemas+2 {
			return nil, fmt.Errorf("registry cold load: %d schemas, %v", n, err)
		}
		if err := rewritePO(dir, i%2 == 0); err != nil {
			return nil, err
		}
		sp = tr.begin("registry.reload", 0, i)
		t = time.Now()
		changed, err = reg.Reload()
		reload = append(reload, float64(time.Since(t)))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("registry reload: %w", err)
		}
	}
	st.put("registry.cold_load_ms", "ms", median(cold)/1e6)
	st.put("registry.reload_ms", "ms", median(reload)/1e6)
	st.put("registry.reload_changed", "count", float64(changed))

	// The HTTP layer in process: handler against library call, and a
	// loopback round trip against the handler.
	if err := serverRungs(l, st, reg, env, c, docs, valid, jsons, warm, stream, encode); err != nil {
		return nil, err
	}
	return st, nil
}

// serverRungs measures server.New(..).Handler().ServeHTTP per endpoint
// with a recorder, the library call each endpoint makes, and a real
// loopback round trip.
func serverRungs(l *ladder, st layerStats, reg *registry.Registry, env *libEnv, c *corpus,
	docs, valid []*doc, jsons map[*doc][]byte, warm, stream, encode func(d *doc)) error {
	logs := &countWriter{}
	metrics := &obs.Metrics{}
	h := server.New(server.Config{Registry: reg, Metrics: metrics,
		Logger: slog.New(slog.NewJSONHandler(logs, nil))}).Handler()
	pools := batchPools(c)
	batches := map[*doc][]*doc{}
	bodies := map[*doc][]byte{}
	for i, d := range docs {
		batches[d] = batch(pools[d.schema], i)
		b, err := batchBody(batches[d])
		if err != nil {
			return err
		}
		bodies[d] = b
	}
	var failures int
	serve := func(url string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			failures++
		}
	}
	type endpoint struct {
		name    string
		set     []*doc
		handler func(d *doc)
		library func(d *doc)
	}
	validate := func(d *doc) { serve("/v1/validate/"+d.schema, d.src) }
	eps := []endpoint{
		{"validate", docs, validate, warm},
		{"stream", docs,
			func(d *doc) { serve("/v1/validate/"+d.schema+"?stream=1", d.src) }, stream},
		{"decode", docs,
			func(d *doc) { serve("/v1/decode/"+d.schema, d.src) },
			func(d *doc) {
				b := env.of(d).binder
				if v, _ := b.DecodeBytes(d.src); v != nil {
					b.JSON(v)
				}
			}},
		{"encode", valid,
			func(d *doc) { serve("/v1/encode/"+d.schema, jsons[d]) }, encode},
		{"batch", docs,
			func(d *doc) { serve("/v1/validate-batch/"+d.schema, bodies[d]) },
			func(d *doc) {
				parsed := make([]*dom.Document, 0, len(batches[d]))
				for _, bd := range batches[d] {
					if doc, err := dom.Parse(bd.src); err == nil {
						parsed = append(parsed, doc)
					}
				}
				env.of(d).v.ValidateBatch(parsed)
				for _, doc := range parsed {
					doc.Release()
				}
			}},
	}
	runtime.GC()
	m0 := readMem()
	logs0 := logs.n.Load()
	var requests int64
	for _, ep := range eps {
		h, lib := "server.handler."+ep.name, "server.library."+ep.name
		l.rungs(ep.set, rungFn{lib, ep.library}, rungFn{h, ep.handler})
		requests += int64(l.reps * len(ep.set))
		st.put("server.handler_us."+ep.name, "us", l.perDoc(h)/1e3)
		st.put("server.handler_self_us."+ep.name, "us", l.self(h, lib)/1e3)
	}
	m1 := readMem()
	logBytes := logs.n.Load() - logs0

	// Loopback: the same handler behind a real listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	base := "http://" + ln.Addr().String()
	l.rungs(docs,
		rungFn{"http.handler_baseline", validate},
		rungFn{"http.roundtrip.validate", func(d *doc) {
			resp, err := client.Post(base+"/v1/validate/"+d.schema, "application/xml", bytes.NewReader(d.src))
			if err != nil {
				failures++
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // timing only; status checked
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failures++
			}
		}})
	client.CloseIdleConnections()
	hs.Close() //nolint:errcheck // listener owned here
	if err := <-served; err != nil && err != http.ErrServerClosed {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d in-process requests did not answer 200", failures)
	}
	st.put("http.transport_self_us", "us", l.self("http.roundtrip.validate", "http.handler_baseline")/1e3)

	var shed int64
	for _, s := range metrics.Snapshot().Series {
		shed += s.Shed
	}
	st.put("server.log_bytes_per_request", "B", float64(logBytes)/float64(requests))
	st.put("server.gc_cycles_per_1k_requests", "count", float64(m1.numGC-m0.numGC)*1000/float64(requests))
	st.put("server.gc_pause_ms", "ms/1k-req", float64(m1.pauseNs-m0.pauseNs)/1e6*1000/float64(requests))
	st.put("server.shed_frac", "ratio", float64(shed)/float64(requests))
	return nil
}

// writeTrace stores the run's spans and counts under workDir.
func writeTrace(o options, tr *tracer) (string, error) {
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// traceLibrary is the traced run of the ingest and bulk workloads.
func traceLibrary(o options, c *corpus, env *libEnv, ops []op, cnt *counter, stamp map[string]any) (*result, error) {
	tr := newTracer()
	// Alternate untraced and traced slices of the measured loop so drift
	// on the host hits both sides alike.
	slice := time.Duration(o.seconds * float64(time.Second) / 8)
	var plain, traced counter
	var plainT, tracedT time.Duration
	for i := 0; i < 4; i++ {
		plainT += loop(env, ops, nil, slice, &plain)
		tracedT += loop(env, ops, tr, slice, &traced)
	}
	cnt.add(&plain)
	cnt.add(&traced)
	docs := c.docs
	if len(docs) > ladderDocs {
		docs = docs[:ladderDocs]
	}
	st, err := climb(o, c, env, tr, docs, 3)
	if err != nil {
		return nil, err
	}
	st.put("trace.overhead_frac", "ratio", 1-(float64(traced.docs)/tracedT.Seconds())/(float64(plain.docs)/plainT.Seconds()))
	return finishTrace(o, tr, st, cnt, stamp)
}

// loop runs passes over ops for at least d, with a span around each
// entry-point call when tr is set.
func loop(env *libEnv, ops []op, tr *tracer, d time.Duration, cnt *counter) time.Duration {
	start := time.Now()
	for time.Since(start) < d {
		for _, op := range ops {
			if tr == nil {
				runOp(env, op, cnt)
				continue
			}
			id := tr.begin("entry."+op.ep.name, 0, op.d.id)
			runOp(env, op, cnt)
			tr.end(id)
			tr.count("entry."+op.ep.name+".bytes", int64(len(op.d.src)))
		}
	}
	return time.Since(start)
}

func finishTrace(o options, tr *tracer, st layerStats, cnt *counter, stamp map[string]any) (*result, error) {
	path, err := writeTrace(o, tr)
	if err != nil {
		return nil, err
	}
	stamp["trace_file"] = path
	stamp["trace_spans"] = len(tr.spans)
	res := &result{Correct: cnt.failed == 0, Attempted: cnt.attempted, Failed: cnt.failed, Metrics: map[string]metric(st)}
	reportFailures(cnt)
	return res, nil
}

// traceServe is the traced run of the serve workload: an untraced and a
// traced load phase against the real server (the server-process
// metrics come from the untraced one), then the ladder in process.
func traceServe(o options, c *corpus, g *loadGen, warm *counter, stamp map[string]any) (*result, error) {
	cnt := &counter{}
	cnt.add(warm)
	phase := time.Duration(o.seconds * float64(time.Second) / 4)
	plain, err := runServePhase(g, phase)
	if err != nil {
		return nil, err
	}
	if plain.reconciled != nil {
		plain.res.cnt.fail(fmt.Errorf("reconcile: %w", plain.reconciled))
	}
	tr := newTracer()
	g.tr = tr
	traced, err := runServePhase(g, phase)
	g.tr = nil
	if err != nil {
		return nil, err
	}
	if traced.reconciled != nil {
		traced.res.cnt.fail(fmt.Errorf("reconcile: %w", traced.reconciled))
	}
	cnt.add(&plain.res.cnt)
	cnt.add(&traced.res.cnt)

	env, err := newLibEnv()
	if err != nil {
		return nil, err
	}
	docs := c.docs[:min(ladderDocs, len(c.docs))]
	for _, d := range docs {
		if _, err := ingestEntries[d.entry].run(env.of(d), d.src); err != nil {
			return nil, err
		}
	}
	st, err := climb(o, c, env, tr, docs, 3)
	if err != nil {
		return nil, err
	}
	pr := plain.res
	reqs := float64(pr.requests)
	var shed int64
	for _, t := range pr.tallies {
		shed += t.shed
	}
	st.put("server.log_bytes_per_request", "B", float64(plain.logBytes)/reqs)
	cycles, pause := gcBetween(plain.m0, plain.m1)
	st.put("server.gc_cycles_per_1k_requests", "count", float64(cycles)*1000/reqs)
	st.put("server.gc_pause_ms", "ms/1k-req", pause/1e6*1000/reqs)
	st.put("server.shed_frac", "ratio", float64(shed)/reqs)
	st.put("trace.overhead_frac", "ratio", 1-median(pr.passTimes)/median(traced.res.passTimes))
	return finishTrace(o, tr, st, cnt, stamp)
}
