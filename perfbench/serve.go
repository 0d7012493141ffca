package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// graphSchemas is the size of the E13-style import graph served
	// beside the two benchmark schemas, so set-up measures the
	// registry's cold start over a multi-file closure.
	graphSchemas = 200
	// batchDocs is the document count of one validate-batch request.
	batchDocs = 16
)

// poRevisionB is a second version of the purchase-order schema: other
// bytes, same language. Rewriting between the two makes every reload
// recompile without changing any verdict.
var poRevisionB = strings.Replace(poXSD, "<xsd:element name=\"purchaseOrder\"",
	"<xsd:annotation><xsd:documentation>Revision B: same language, other bytes.</xsd:documentation></xsd:annotation>\n\n  <xsd:element name=\"purchaseOrder\"", 1)

// writeServeDir lays out the schema directory xsdserved serves.
func writeServeDir(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "lib"), 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"po.xsd":         poXSD,
		"catalog.xsd":    catalogXSD,
		"lib/common.xsd": graphLibXSD,
	}
	for i := 0; i < graphSchemas; i++ {
		files[fmt.Sprintf("g%03d.xsd", i)] = fmt.Sprintf(graphSchemaXSD, i, i)
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

const graphLibXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:shared"
            xmlns:s="urn:shared">
  <xsd:complexType name="Meta">
    <xsd:sequence>
      <xsd:element name="id" type="xsd:string"/>
      <xsd:element name="rev" type="xsd:positiveInteger" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>
`

const graphSchemaXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:g%d"
            xmlns:s="urn:shared" elementFormDefault="qualified">
  <xsd:import namespace="urn:shared" schemaLocation="lib/common.xsd"/>
  <xsd:element name="doc%d">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="meta" type="s:Meta"/>
        <xsd:element name="body" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
      <xsd:attribute name="lang" type="xsd:language" default="en"/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
`

// rewritePO atomically replaces the served purchase-order schema.
func rewritePO(dir string, revB bool) error {
	src := poXSD
	if revB {
		src = poRevisionB
	}
	tmp := filepath.Join(dir, "po.xsd.tmp")
	if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "po.xsd"))
}

// serverProc is a running xsdserved.
type serverProc struct {
	cmd         *exec.Cmd
	addr, pprof string
	logBytes    atomic.Int64 // bytes written to stderr (request logs)
	readers     sync.WaitGroup
}

// startServer execs xsdserved and returns once /healthz answers 200 with
// every schema loaded; the duration is the serve set-up time.
func startServer(bin, dir string, wantSchemas int) (*serverProc, time.Duration, error) {
	start := time.Now()
	s := &serverProc{cmd: exec.Command(bin, "-schemas", dir, "-addr", "127.0.0.1:0", "-reload", "0",
		"-pprof-addr", "127.0.0.1:0", "-drain-notice", "0", "-drain", "5s")}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start xsdserved: %w", err)
	}
	addrc := make(chan string, 1)
	pprofc := make(chan string, 1)
	s.readers.Add(2)
	go func() {
		defer s.readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "xsdserved listening on "); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
	}()
	go func() {
		defer s.readers.Done()
		br := bufio.NewReader(stderr)
		for {
			line, err := br.ReadBytes('\n')
			s.logBytes.Add(int64(len(line)))
			if bytes.Contains(line, []byte(`"pprof listening"`)) {
				var rec struct{ Addr string }
				if json.Unmarshal(line, &rec) == nil {
					select {
					case pprofc <- rec.Addr:
					default:
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	timeout := time.After(60 * time.Second)
	for s.addr == "" || s.pprof == "" {
		select {
		case s.addr = <-addrc:
		case s.pprof = <-pprofc:
		case <-timeout:
			s.stop()
			return nil, 0, errors.New("xsdserved did not announce its addresses within 60s")
		}
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		var h struct{ Schemas int }
		code, err := getJSON(client, "http://"+s.addr+"/healthz", &h)
		if err == nil && code == http.StatusOK && h.Schemas == wantSchemas {
			break
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("xsdserved not healthy within 60s (status %d, %d schemas, %v)", code, h.Schemas, err)
		}
		time.Sleep(time.Millisecond)
	}
	client.CloseIdleConnections()
	return s, time.Since(start), nil
}

// stop asks the server to drain and waits for it to exit, killing it if
// it does not within ten seconds.
func (s *serverProc) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // Wait reports the outcome
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		s.readers.Wait()
		return err
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // Wait reports the outcome
		<-done
		s.readers.Wait()
		return errors.New("xsdserved did not drain within 10s")
	}
}

func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// serverMem is the server's MemStats as its pprof heap page prints
// them. The page has no PauseTotalNs, so pauses are summed from the
// PauseNs ring (the last 256 pauses) by their end times.
type serverMem struct {
	memSample
	forcedGC, lastGC    uint64
	pauseNs, pauseEndNs []uint64
}

// mem reads the server's MemStats through its pprof heap endpoint
// (gc=1 forces a collection first, so HeapAlloc is the live heap).
func (s *serverProc) mem() (*serverMem, error) {
	resp, err := http.Get("http://" + s.pprof + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := &serverMem{}
	scalars := map[string]*uint64{"TotalAlloc": &m.totalAlloc, "Mallocs": &m.mallocs, "NumGC": &m.numGC,
		"NumForcedGC": &m.forcedGC, "LastGC": &m.lastGC, "HeapAlloc": &m.heapAlloc}
	lists := map[string]*[]uint64{"PauseNs": &m.pauseNs, "PauseEnd": &m.pauseEndNs}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if p := scalars[k]; p != nil {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof %s: %w", k, err)
			}
			*p = n
			found++
		} else if p := lists[k]; p != nil {
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("pprof %s: %w", k, err)
				}
				*p = append(*p, n)
			}
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if found != len(scalars)+len(lists) || len(m.pauseNs) != len(m.pauseEndNs) {
		return nil, fmt.Errorf("pprof heap page carried %d of %d MemStats fields", found, len(scalars)+len(lists))
	}
	return m, nil
}

// gcBetween returns the collections the server ran between two readings,
// not counting the forced one each reading makes, and their total pause.
// If more than the ring holds ran, the pause total is scaled up from the
// ones the ring kept.
func gcBetween(a, b *serverMem) (cycles uint64, pauseNs float64) {
	cycles = (b.numGC - a.numGC) - (b.forcedGC - a.forcedGC)
	var kept uint64
	for i, end := range b.pauseEndNs {
		if end > a.lastGC && end < b.lastGC {
			pauseNs += float64(b.pauseNs[i])
			kept++
		}
	}
	if kept > 0 && kept < cycles {
		pauseNs *= float64(cycles) / float64(kept)
	}
	return cycles, pauseNs
}

// metricsSnap is the part of /metrics the benchmark reconciles.
type metricsSnap struct {
	Reloads      int64 `json:"reloads"`
	ReloadErrors int64 `json:"reload_errors"`
	Series       []struct {
		Schema   string `json:"schema"`
		Endpoint string `json:"endpoint"`
		Requests int64  `json:"requests"`
		Invalid  int64  `json:"invalid"`
		Errors   int64  `json:"errors"`
		Shed     int64  `json:"shed"`
	} `json:"series"`
}

// tally is one series' client-side count, in /metrics terms.
type tally struct{ requests, invalid, errors, shed int64 }

func (m *metricsSnap) tallies() map[string]tally {
	out := map[string]tally{}
	for _, s := range m.Series {
		out[s.Schema+"/"+s.Endpoint] = tally{s.Requests, s.Invalid, s.Errors, s.Shed}
	}
	return out
}

// request is one prepared call of the serve mix.
type request struct {
	kind   string // validate, stream, decode, encode, batch
	schema string
	series string // the /metrics endpoint label it lands in
	url    string // path and query
	body   []byte
	docs   []*doc
	want   []byte // encode: the library's marshaled XML; decode: its JSON
}

var serveKinds = []string{"validate", "stream", "decode", "encode", "batch"}

// serveRequests prepares one pass of the mix over the corpus. An invalid
// document dealt to encode (which takes valid JSON) is validated with
// ?stream=1 instead. Expected decode and encode payloads come from the
// library.
func serveRequests(seed int64, c *corpus, env *libEnv) ([]request, error) {
	r := rand.New(rand.NewSource(seed ^ 0x5e7e))
	pools := batchPools(c)
	batches := map[string]int{}
	// Kinds are dealt five at a time in size order, so every kind sees
	// the same size mix; requests go out in the corpus's seeded order.
	bySize := append([]*doc(nil), c.docs...)
	sort.SliceStable(bySize, func(i, j int) bool { return len(bySize[i].src) < len(bySize[j].src) })
	kindOf := map[*doc]string{}
	var kinds []int
	for i, d := range bySize {
		if i%len(serveKinds) == 0 {
			kinds = r.Perm(len(serveKinds))
		}
		kindOf[d] = serveKinds[kinds[i%len(serveKinds)]]
	}
	var reqs []request
	for _, d := range c.docs {
		kind := kindOf[d]
		if kind == "encode" && !d.valid() {
			kind = "stream"
		}
		e := env.of(d)
		q := request{kind: kind, schema: d.schema, docs: []*doc{d}, body: d.src}
		switch kind {
		case "validate":
			q.url, q.series = "/v1/validate/"+d.schema, "dom"
		case "stream":
			q.url, q.series = "/v1/validate/"+d.schema+"?stream=1", "stream"
		case "decode":
			q.url, q.series = "/v1/decode/"+d.schema, "decode-dom"
			if d.valid() {
				v, res := e.binder.DecodeBytes(d.src)
				if !res.OK() {
					return nil, fmt.Errorf("doc %d: library decode rejected a valid document", d.id)
				}
				q.want = compactJSON(e.binder.JSON(v))
			}
		case "encode":
			q.url, q.series = "/v1/encode/"+d.schema, "encode"
			v, res := e.binder.DecodeBytes(d.src)
			if !res.OK() {
				return nil, fmt.Errorf("doc %d: library decode rejected a valid document", d.id)
			}
			q.body = e.binder.JSON(v)
			back, err := e.binder.FromJSON(q.body)
			if err != nil {
				return nil, fmt.Errorf("doc %d: library FromJSON: %w", d.id, err)
			}
			if q.want, err = e.binder.Marshal(back); err != nil {
				return nil, fmt.Errorf("doc %d: library Marshal: %w", d.id, err)
			}
		case "batch":
			q.url, q.series = "/v1/validate-batch/"+d.schema, "batch"
			q.docs = batch(pools[d.schema], batches[d.schema])
			batches[d.schema]++
			var err error
			if q.body, err = batchBody(q.docs); err != nil {
				return nil, err
			}
		}
		reqs = append(reqs, q)
	}
	return reqs, nil
}

// batchPools groups the corpus by schema, each group in size order.
func batchPools(c *corpus) map[string][]*doc {
	pools := map[string][]*doc{}
	for _, d := range c.docs {
		pools[d.schema] = append(pools[d.schema], d)
	}
	for _, pool := range pools {
		sort.SliceStable(pool, func(i, j int) bool { return len(pool[i].src) < len(pool[j].src) })
	}
	return pools
}

// batch returns the k-th validate-batch of a size-ordered pool: one
// document from each of batchDocs size strata, so every batch carries
// the same size mix. A pool smaller than a batch gives each of its
// documents once.
func batch(pool []*doc, k int) []*doc {
	n := min(batchDocs, len(pool))
	stride := len(pool) / n
	out := make([]*doc, n)
	for j := range out {
		out[j] = pool[(k+j*stride)%len(pool)]
	}
	return out
}

// batchBody is the JSON body of a validate-batch request.
func batchBody(docs []*doc) ([]byte, error) {
	var body struct {
		Documents []string `json:"documents"`
	}
	for _, d := range docs {
		body.Documents = append(body.Documents, string(d.src))
	}
	return json.Marshal(body)
}

func compactJSON(b []byte) []byte {
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		return b
	}
	return out.Bytes()
}

// verdictJSON is the shape shared by validate and decode responses.
type verdictJSON struct {
	Valid      bool `json:"valid"`
	Violations []struct {
		Path string `json:"path"`
	} `json:"violations"`
	Data json.RawMessage `json:"data"`
}

func checkJSONVerdict(d *doc, v *verdictJSON) error {
	switch {
	case d.valid() && !v.Valid:
		return fmt.Errorf("doc %d: valid document rejected", d.id)
	case !d.valid() && v.Valid:
		return fmt.Errorf("doc %d (%s): defect not reported", d.id, d.defect)
	case !d.valid() && (len(v.Violations) == 0 || v.Violations[0].Path != d.path):
		return fmt.Errorf("doc %d (%s): first violation not at %q", d.id, d.defect, d.path)
	}
	return nil
}

// checkResponse compares a 200 response with the request's known
// answers and returns the number of invalid documents it reported.
func checkResponse(q *request, body []byte) (invalid int64, err error) {
	switch q.kind {
	case "encode":
		if !bytes.Equal(body, q.want) {
			return 0, fmt.Errorf("doc %d: encode returned other XML than the library", q.docs[0].id)
		}
		return 0, nil
	case "batch":
		var resp struct {
			Results []verdictJSON `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, fmt.Errorf("batch response: %w", err)
		}
		if len(resp.Results) != len(q.docs) {
			return 0, fmt.Errorf("batch of %d answered %d verdicts", len(q.docs), len(resp.Results))
		}
		for i := range resp.Results {
			if !resp.Results[i].Valid {
				invalid++
			}
			if err := checkJSONVerdict(q.docs[i], &resp.Results[i]); err != nil {
				return invalid, err
			}
		}
		return invalid, nil
	}
	var v verdictJSON
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("%s response: %w", q.kind, err)
	}
	if !v.Valid {
		invalid = 1
	}
	if err := checkJSONVerdict(q.docs[0], &v); err != nil {
		return invalid, err
	}
	if q.kind == "decode" && q.docs[0].valid() && !bytes.Equal(compactJSON(v.Data), q.want) {
		return invalid, fmt.Errorf("doc %d: decode returned other JSON than the library", q.docs[0].id)
	}
	return invalid, nil
}

// loadResult is what one closed-loop load phase observed.
type loadResult struct {
	cnt       counter
	lat       *latencies
	passTimes []float64 // seconds per pass over the request list
	requests  int64
	reloads   int64
	tallies   map[string]tally
}

// loadGen drives the server in a closed loop: one caller on one
// keep-alive connection, sending its next request only after the
// previous verdict arrived. One caller leaves the second core of a
// two-core host to the server's batch workers and collector; two
// callers made runs spread twice as wide.
type loadGen struct {
	base   string
	client *http.Client
	reqs   []request
	dir    string // served schema directory, for reloads
	proc   *serverProc
	revB   bool
	tr     *tracer // nil when not tracing
}

func newLoadGen(proc *serverProc, dir string, reqs []request) *loadGen {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &loadGen{base: "http://" + proc.addr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		reqs: reqs, dir: dir, proc: proc}
}

// run loads the server in whole passes over the request list until d
// has passed, so every run sends the same mix; each pass after the first
// starts with a schema rewrite and SIGHUP.
func (g *loadGen) run(d time.Duration) *loadResult {
	res := &loadResult{lat: newLatencies(1 << 16), tallies: map[string]tally{}}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		t0 := time.Now()
		if pass > 0 {
			if err := g.hup(); err != nil {
				res.cnt.fail(err)
			} else {
				res.reloads++
			}
		}
		for i := range g.reqs {
			t := time.Now()
			g.do(&g.reqs[i], i, &res.cnt, res.tallies)
			res.lat.add(time.Since(t))
		}
		res.lat.endPass()
		res.passTimes = append(res.passTimes, time.Since(t0).Seconds())
		res.requests += int64(len(g.reqs))
	}
	return res
}

// hup rewrites the purchase-order schema to its other revision and
// signals the server to reload.
func (g *loadGen) hup() error {
	g.revB = !g.revB
	if err := rewritePO(g.dir, g.revB); err != nil {
		return fmt.Errorf("rewrite po.xsd: %w", err)
	}
	return g.proc.cmd.Process.Signal(syscall.SIGHUP)
}

// do sends one request and checks its answer. Every document in it
// counts as attempted; a transport error, a non-200 or a wrong verdict
// fails all of them.
func (g *loadGen) do(q *request, id int, cnt *counter, tallies map[string]tally) {
	ndocs := int64(len(q.docs))
	cnt.attempted += ndocs
	key := q.schema + "/" + q.series
	t := tallies[key]
	defer func() { tallies[key] = t }()
	var sp int
	if g.tr != nil {
		sp = g.tr.begin("http."+q.kind, 0, id)
	}
	resp, err := g.client.Post(g.base+q.url, "application/xml", bytes.NewReader(q.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if g.tr != nil {
		g.tr.end(sp)
		g.tr.count("http.requests", 1)
		g.tr.count("http.docs", ndocs)
		g.tr.count("http.request_bytes", int64(len(q.body)))
		g.tr.count("http.response_bytes", int64(len(body)))
	}
	if err != nil {
		cnt.failN(ndocs, fmt.Errorf("%s transport: %w", q.kind, err))
		return
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		t.shed++
	case resp.StatusCode != http.StatusOK:
		t.errors++
	default:
		t.requests++
		inv, err := checkResponse(q, body)
		t.invalid += inv
		if err != nil {
			cnt.failN(ndocs, fmt.Errorf("%s: %w", q.kind, err))
			return
		}
		cnt.docs += ndocs
		return
	}
	cnt.failN(ndocs, fmt.Errorf("%s: HTTP %d: %s", q.kind, resp.StatusCode, bytes.TrimSpace(body)))
}

// reconcile checks the server's own counters against what the client
// saw: every series delta, the reload count and the served version.
func reconcile(before, after *metricsSnap, res *loadResult, sentReloads int64) error {
	b, a := before.tallies(), after.tallies()
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range res.tallies {
		keys[k] = true
	}
	for k := range keys {
		want := res.tallies[k]
		got := tally{a[k].requests - b[k].requests, a[k].invalid - b[k].invalid,
			a[k].errors - b[k].errors, a[k].shed - b[k].shed}
		if got != want {
			return fmt.Errorf("/metrics series %s moved by %+v, client saw %+v", k, got, want)
		}
	}
	if d := after.ReloadErrors - before.ReloadErrors; d != 0 {
		return fmt.Errorf("%d reload errors during the load", d)
	}
	if d := after.Reloads - before.Reloads; d != sentReloads {
		return fmt.Errorf("/metrics counts %d reloads, client sent %d SIGHUPs", d, sentReloads)
	}
	return nil
}

// waitReloads polls /metrics until the server has processed want
// reloads since before, or ten seconds pass.
func waitReloads(client *http.Client, base string, before *metricsSnap, want int64) (*metricsSnap, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m metricsSnap
		if _, err := getJSON(client, base+"/metrics", &m); err != nil {
			return nil, err
		}
		if m.Reloads-before.Reloads >= want || time.Now().After(deadline) {
			return &m, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// servedVersion returns the version the registry serves for name.
func servedVersion(client *http.Client, base, name string) (int, error) {
	var resp struct {
		Schemas []struct {
			Name    string `json:"name"`
			Version int    `json:"version"`
		} `json:"schemas"`
	}
	if _, err := getJSON(client, base+"/v1/schemas", &resp); err != nil {
		return 0, err
	}
	for _, s := range resp.Schemas {
		if s.Name == name {
			return s.Version, nil
		}
	}
	return 0, fmt.Errorf("schema %q not served", name)
}

// servePhase runs one measured load phase with full accounting: server
// MemStats and /metrics before and after, reloads drained, counters and
// served version reconciled.
type servePhase struct {
	res        *loadResult
	m0, m1     *serverMem
	logBytes   int64
	reconciled error
}

func runServePhase(g *loadGen, d time.Duration) (*servePhase, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	var before metricsSnap
	if _, err := getJSON(client, g.base+"/metrics", &before); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	v0, err := servedVersion(client, g.base, "po")
	if err != nil {
		return nil, err
	}
	m0, err := g.proc.mem()
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	log0 := g.proc.logBytes.Load()
	res := g.run(d)
	log1 := g.proc.logBytes.Load()
	after, err := waitReloads(client, g.base, &before, res.reloads)
	if err != nil {
		return nil, err
	}
	m1, err := g.proc.mem()
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	// A second forced collection empties the sync.Pools the first one
	// only moved to their victim caches, so the live heap read is the
	// server's lasting state rather than whatever the last requests
	// left pooled.
	settled, err := g.proc.mem()
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	m1.heapAlloc = settled.heapAlloc
	p := &servePhase{res: res, m0: m0, m1: m1, logBytes: log1 - log0}
	p.reconciled = reconcile(&before, after, res, res.reloads)
	if p.reconciled == nil {
		v1, err := servedVersion(client, g.base, "po")
		if err != nil {
			return nil, err
		}
		if int64(v1-v0) != res.reloads {
			p.reconciled = fmt.Errorf("po version moved %d → %d over %d schema rewrites", v0, v1, res.reloads)
		}
	}
	return p, nil
}

// serveSetup prepares the schema directory and request mix, then starts
// xsdserved setupReps times, keeping the last process for the load.
func serveSetup(o options, c *corpus) (*loadGen, []float64, func() error, error) {
	if o.xsdserved == "" {
		return nil, nil, nil, errors.New("the serve workload needs --xsdserved")
	}
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("serve-%d-%d", o.seed, os.Getpid())))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := writeServeDir(dir); err != nil {
		return nil, nil, nil, err
	}
	env, err := newLibEnv()
	if err != nil {
		return nil, nil, nil, err
	}
	reqs, err := serveRequests(o.seed, c, env)
	if err != nil {
		return nil, nil, nil, err
	}
	want := graphSchemas + 2
	var proc *serverProc
	var setups []float64
	for i := 0; i < setupReps["serve"]; i++ {
		if proc != nil {
			if err := proc.stop(); err != nil {
				return nil, nil, nil, fmt.Errorf("stopping xsdserved: %w", err)
			}
		}
		var d time.Duration
		if proc, d, err = startServer(o.xsdserved, dir, want); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	g := newLoadGen(proc, dir, reqs)
	cleanup := func() error {
		g.client.CloseIdleConnections()
		err := proc.stop()
		os.RemoveAll(dir) //nolint:errcheck // scratch directory under the build dir
		return err
	}
	return g, setups, cleanup, nil
}

// runServe runs the serve workload against a real xsdserved.
func runServe(o options, c *corpus, stamp map[string]any) (_ *result, err error) {
	g, setups, cleanup, err := serveSetup(o, c)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := cleanup(); cerr != nil && err == nil {
			err = fmt.Errorf("xsdserved shutdown: %w", cerr)
		}
	}()
	// Warm the connections and the server's caches with one pass that
	// is verdict-checked but not measured.
	var warm counter
	for i := range g.reqs {
		g.do(&g.reqs[i], i, &warm, map[string]tally{})
	}
	if o.trace {
		return traceServe(o, c, g, &warm, stamp)
	}
	p, err := runServePhase(g, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	res := p.res
	if p.reconciled != nil {
		res.cnt.fail(fmt.Errorf("reconcile: %w", p.reconciled))
	}
	tailQ := tailQuantiles["serve"]
	p50, tail, n, nBeyond := res.lat.summary(tailQ)
	stamp["requests"] = res.requests
	stamp["reloads"] = res.reloads
	docs := res.cnt.docs
	res.cnt.add(&warm)
	return endToEnd(phaseStats{setups: setups, docs: docs, passTimes: res.passTimes,
		p50: p50, tail: tail, samples: n, tailQ: tailQ, tailBeyond: nBeyond,
		allocBytes: p.m1.totalAlloc - p.m0.totalAlloc, allocs: p.m1.mallocs - p.m0.mallocs, heap: p.m1.heapAlloc},
		&res.cnt, stamp), nil
}
