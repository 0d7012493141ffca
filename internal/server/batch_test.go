package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/xsd"
)

func postBatch(t *testing.T, url string, docs []string) (int, batchResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(batchRequest{Documents: docs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("batch response not JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, br, raw
}

func TestValidateBatch(t *testing.T) {
	m := &obs.Metrics{}
	ts, _ := newTestServer(t, Config{Metrics: m})
	url := ts.URL + "/v1/validate-batch/po"

	invalid := strings.Replace(schemas.PurchaseOrderDoc, "<quantity>1</quantity>", "<quantity>9999</quantity>", 1)
	code, br, raw := postBatch(t, url, []string{
		schemas.PurchaseOrderDoc, // valid
		invalid,                  // schema-invalid
		"<broken",                // malformed
		schemas.PurchaseOrderDoc, // valid
	})
	if code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", code, raw)
	}
	if br.Count != 4 || br.Valid != 2 || br.Invalid != 2 {
		t.Fatalf("count/valid/invalid = %d/%d/%d, want 4/2/2", br.Count, br.Valid, br.Invalid)
	}
	if br.Schema != "po" || br.SchemaVersion != 1 {
		t.Fatalf("schema identity = %s v%d", br.Schema, br.SchemaVersion)
	}
	// Verdicts are index-aligned with the request.
	wantValid := []bool{true, false, false, true}
	for i, r := range br.Results {
		if r.Valid != wantValid[i] {
			t.Fatalf("results[%d].valid = %v, want %v (%+v)", i, r.Valid, wantValid[i], br.Results)
		}
	}
	// The malformed document's verdict carries its parse error, same
	// contract as /v1/validate.
	if len(br.Results[2].Violations) == 0 || br.Results[2].Violations[0].Path != "/" {
		t.Fatalf("malformed doc verdict = %+v, want a parse violation at /", br.Results[2])
	}
	// Invalid meters documents: one batch with two bad docs moves the
	// series by 2, and the whole batch is one request.
	series := m.Series("po", "batch")
	if got := series.Invalid.Load(); got != 2 {
		t.Fatalf("batch series Invalid = %d, want 2", got)
	}
	if got := series.Requests.Load(); got != 1 {
		t.Fatalf("batch series Requests = %d, want 1", got)
	}
}

// batchCatalogXSD puts an xs:key/xs:keyref pair on a nested <section>,
// so the token stream buffers each section's subtree and replays it.
const batchCatalogXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="catalog">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="section" maxOccurs="unbounded">
          <xsd:complexType>
            <xsd:sequence>
              <xsd:element name="product" maxOccurs="unbounded">
                <xsd:complexType>
                  <xsd:attribute name="sku" type="xsd:string" use="required"/>
                  <xsd:attribute name="price" type="xsd:decimal"/>
                </xsd:complexType>
              </xsd:element>
              <xsd:element name="ref" minOccurs="0" maxOccurs="unbounded">
                <xsd:complexType>
                  <xsd:attribute name="to" type="xsd:string" use="required"/>
                </xsd:complexType>
              </xsd:element>
            </xsd:sequence>
          </xsd:complexType>
          <xsd:key name="skuKey">
            <xsd:selector xpath="product"/>
            <xsd:field xpath="@sku"/>
          </xsd:key>
          <xsd:keyref name="skuRef" refer="skuKey">
            <xsd:selector xpath="ref"/>
            <xsd:field xpath="@to"/>
          </xsd:keyref>
        </xsd:element>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
`

// TestValidateBatchParity holds every batch verdict to the library's
// ValidateBytes on the same document: valid, schema-invalid, malformed
// (including a parse error after a validity error), an undeclared prefix,
// and identity-constrained subtrees the stream buffers and replays.
func TestValidateBatchParity(t *testing.T) {
	ts, s := newTestServer(t, Config{})
	if err := os.WriteFile(filepath.Join(s.reg.Dir(), "catalog.xsd"), []byte(batchCatalogXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.Reload(); err != nil {
		t.Fatal(err)
	}
	section := func(body string) string { return `<section>` + body + `</section>` }
	for _, tc := range []struct {
		schema, xsdSrc string
		docs           []string
	}{
		{"po", schemas.PurchaseOrderXSD, []string{
			schemas.PurchaseOrderDoc,
			strings.Replace(schemas.PurchaseOrderDoc, "<quantity>1</quantity>", "<quantity>9999</quantity>", 1),
			`<purchaseOrder><shipTo></purchaseOrder>`,
			`<purchaseOrder><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</nam`,
			``,
			`not xml at all`,
			`<purchaseOrder><po:items/></purchaseOrder>`,
			`<nope><a></b></nope>`,
		}},
		{"catalog", batchCatalogXSD, []string{
			`<catalog>` + section(`<product sku="a"/><product sku="b" price="1.5"/><ref to="a"/>`) +
				section(`<product sku="a"/><ref to="a"/>`) + `</catalog>`,
			`<catalog>` + section(`<product sku="a"/><product sku="a"/>`) +
				section(`<product sku="b" price="cheap"/><ref to="c"/>`) + `</catalog>`,
			`<catalog>` + section(`<ref to="a"/>`) + section(`<product sku="a"/><ref to="b"/>`) + `</catalog>`,
			`<catalog>` + section(`<product sku="a"/>`) + section(`<product sku="a"></section>`) + `</catalog>`,
		}},
	} {
		schema, err := xsd.ParseString(tc.xsdSrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		code, br, raw := postBatch(t, ts.URL+"/v1/validate-batch/"+tc.schema, tc.docs)
		if code != http.StatusOK || len(br.Results) != len(tc.docs) {
			t.Fatalf("%s batch answered %d with %d results: %s", tc.schema, code, len(br.Results), raw)
		}
		for i, doc := range tc.docs {
			_, want := validator.ValidateBytes(schema, []byte(doc))
			got := br.Results[i]
			var wantViols []violationJSON
			for _, v := range want.Violations {
				wantViols = append(wantViols, violationJSON{Path: v.Path, Msg: v.Msg})
			}
			if got.Valid != want.OK() || fmt.Sprint(got.Violations) != fmt.Sprint(wantViols) {
				t.Errorf("%s doc %d %q:\n  batch:         valid=%v %v\n  ValidateBytes: valid=%v %v",
					tc.schema, i, doc, got.Valid, got.Violations, want.OK(), wantViols)
			}
		}
	}
}

// TestValidateBatchDeadlineInsideDocument sends one document that takes
// far longer to validate than the request timeout. The request must
// answer 504, and since the handler answers only once its worker has
// returned, the response time shows the deadline stopped the worker in
// the middle of the document rather than after it.
func TestValidateBatchDeadlineInsideDocument(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<purchaseOrder orderDate="1999-10-20"><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items>`)
	sb.WriteString(strings.Repeat(`<item partNum="926-AA"><productName>p</productName><quantity>1</quantity><USPrice>1.50</USPrice></item>`, 10000))
	sb.WriteString(`</items></purchaseOrder>`)
	doc := sb.String()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(batchRequest{Documents: []string{doc}}); err != nil {
		t.Fatal(err)
	}

	// Time, on this host, what the handler does before the batch starts
	// (decoding the body) and what one full validation takes.
	start := time.Now()
	var req batchRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	decode := time.Since(start)
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if res := validator.New(schema, nil).Stream().ValidateBytes([]byte(doc)); !res.OK() {
		t.Fatalf("setup: document is invalid: %v", res.Err())
	}
	full := time.Since(start)

	// The deadline leaves room for the decode, so it fires while the
	// document is being validated.
	timeout := 3*decode + 20*time.Millisecond
	ts, _ := newTestServer(t, Config{RequestTimeout: timeout})
	start = time.Now()
	resp, err := http.Post(ts.URL+"/v1/validate-batch/po", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("code = %d, want 504 (timeout %v, full validation %v)", resp.StatusCode, timeout, full)
	}
	if limit := timeout + full/2; elapsed > limit {
		t.Fatalf("504 took %v, over %v: the worker ran on past the deadline (timeout %v, full validation %v)",
			elapsed, limit, timeout, full)
	}
}

func TestValidateBatchRequestErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxBatchDocs: 4})

	code, _, _ := postBatch(t, ts.URL+"/v1/validate-batch/nosuch", []string{schemas.PurchaseOrderDoc})
	if code != http.StatusNotFound {
		t.Fatalf("unknown schema answered %d, want 404", code)
	}
	code, _, _ = postBatch(t, ts.URL+"/v1/validate-batch/po", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch answered %d, want 400", code)
	}
	docs := make([]string, 5)
	for i := range docs {
		docs[i] = schemas.PurchaseOrderDoc
	}
	code, _, _ = postBatch(t, ts.URL+"/v1/validate-batch/po", docs)
	if code != http.StatusBadRequest {
		t.Fatalf("over-limit batch answered %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/validate-batch/po", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-JSON batch answered %d, want 400", resp.StatusCode)
	}
}

func TestDrainingHealthz(t *testing.T) {
	ts, s := newTestServer(t, Config{})

	get := func() (int, healthResponse, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr, resp.Header.Get("Draining")
	}

	code, hr, _ := get()
	if code != http.StatusOK || hr.Status != "ok" || hr.Draining {
		t.Fatalf("healthy node: %d %+v", code, hr)
	}

	s.SetDraining(true)
	code, hr, hdr := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz answered %d, want 503", code)
	}
	if hr.Status != "draining" || !hr.Draining || hdr != "true" {
		t.Fatalf("draining healthz = %+v (Draining header %q)", hr, hdr)
	}
	// Draining refuses NEW health checks, not work: validation still
	// answers, because in-flight and already-routed requests must
	// complete during the drain notice.
	code, vr := postDoc(t, ts.URL+"/v1/validate/po", schemas.PurchaseOrderDoc)
	if code != http.StatusOK || !vr.Valid {
		t.Fatalf("validate during drain = %d valid=%v", code, vr.Valid)
	}

	s.SetDraining(false)
	if code, hr, _ := get(); code != http.StatusOK || hr.Draining {
		t.Fatalf("undrained healthz = %d %+v", code, hr)
	}
}

func TestBufferPoolEquivalence(t *testing.T) {
	pooled, _ := newTestServer(t, Config{})
	direct, _ := newTestServer(t, Config{DisableBufferPool: true})

	read := func(ts string) (string, http.Header) {
		resp, err := http.Post(ts+"/v1/validate/po", "application/xml", strings.NewReader(schemas.PurchaseOrderDoc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header
	}
	pb, ph := read(pooled.URL)
	db, _ := read(direct.URL)
	// elapsed_ns differs run to run; zero it before comparing.
	norm := func(s string) string {
		var v map[string]any
		if err := json.Unmarshal([]byte(s), &v); err != nil {
			t.Fatal(err)
		}
		delete(v, "elapsed_ns")
		out, _ := json.Marshal(v) //nolint:errcheck
		return string(out)
	}
	if norm(pb) != norm(db) {
		t.Fatalf("pooled and direct encodings differ:\n%s\n%s", pb, db)
	}
	// The pooled path pre-sizes the body, so the response carries an
	// exact Content-Length instead of chunked framing.
	if cl := ph.Get("Content-Length"); cl == "" {
		t.Fatal("pooled response has no Content-Length")
	} else if want := fmt.Sprint(len(pb)); cl != want {
		t.Fatalf("Content-Length = %s, body is %s bytes", cl, want)
	}
}
