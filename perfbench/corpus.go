package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/gen/pogen"
)

// catalogXSD is the second schema the benchmark ships: xsi:type
// derivation from an abstract type, ID/IDREF and a per-section
// key/keyref, none of which the purchase-order schema exercises.
//
//go:embed schemas/catalog.xsd
var catalogXSD string

// poXSD is the purchase-order schema of the paper's Figures 2 and 3, the
// same bytes the generated pogen package was built from, so every entry
// point validates against one schema.
var poXSD = pogen.SchemaSource

// Defect kinds. Each invalid document carries exactly one, and the
// generator records the violation path it must produce.
const (
	defFacet    = "facet"    // quantity at or above maxExclusive 100
	defPattern  = "pattern"  // partNum that is not \d{3}-[A-Z]{2}
	defMissing  = "missing"  // item without its productName
	defExtra    = "extra"    // undeclared element inside an item
	defDate     = "date"     // shipDate with month 13
	defDupKey   = "dupkey"   // two entries of one section share a code
	defIDRef    = "idref"    // section@see naming no section
	defAbstract = "abstract" // entry without xsi:type on an abstract type
)

var poDefects = []string{defFacet, defPattern, defMissing, defExtra, defDate}
var catalogDefects = []string{defDupKey, defIDRef, defAbstract}

// doc is one generated input with its known answer.
type doc struct {
	id     int
	schema string // "po" or "catalog"
	size   int    // items (po) or entries (catalog)
	src    []byte
	defect string // empty for a valid document
	path   string // expected first violation path when defect != ""
	entry  int    // ingest entry point, an index into ingestEntries
}

func (d *doc) valid() bool { return d.defect == "" }

// corpus is the seeded input set of one workload.
type corpus struct {
	docs []*doc
	// probes are fixed-size purchase orders for the stream-versus-DOM
	// memory rungs of the traced run, keyed by item count.
	probes map[int]*doc
}

// hash is the SHA-256 of every document's bytes and known answer in
// order, so two runs can prove they saw the same corpus.
func (c *corpus) hash() string {
	h := sha256.New()
	for _, d := range c.docs {
		fmt.Fprintf(h, "%d|%s|%s|%s|%d|%d\n", d.id, d.schema, d.defect, d.path, d.entry, len(d.src))
		h.Write(d.src)
	}
	keys := make([]int, 0, len(c.probes))
	for k := range c.probes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		h.Write(c.probes[k].src)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (c *corpus) bytes() int {
	n := 0
	for _, d := range c.docs {
		n += len(d.src)
	}
	return n
}

// logUniformSizes returns n sizes in [lo, hi] spread log-uniformly by
// stratified sampling: one draw per equal-probability stratum, so the
// size distribution is the same for every seed while the draws within
// the strata and their order are seeded.
func logUniformSizes(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := math.Log(float64(hi)+1) - math.Log(float64(lo))
	for i := range out {
		u := (float64(i) + r.Float64()) / float64(n)
		v := int(math.Exp(math.Log(float64(lo)) + u*span))
		out[i] = min(max(v, lo), hi)
	}
	return out
}

// pickOnePerBlock marks one index in every block of k consecutive
// indices, chosen by r, so marked documents spread evenly over sizes.
func pickOnePerBlock(r *rand.Rand, n, k int) []bool {
	marked := make([]bool, n)
	for b := 0; b < n; b += k {
		w := min(k, n-b)
		marked[b+r.Intn(w)] = true
	}
	return marked
}

// ingestCorpus builds the ingest workload: purchase orders with 1–300
// items and catalogs with 1–100 entries, sizes log-uniform, one in ten
// invalid with one defect, and each document assigned one entry point.
// Defects and entry points are dealt in size order so that every entry
// point sees the same size mix.
func ingestCorpus(seed int64) *corpus {
	r := rand.New(rand.NewSource(seed))
	const nPO, nCat = 300, 100
	c := &corpus{}
	poSizes := logUniformSizes(r, nPO, 1, 300)
	catSizes := logUniformSizes(r, nCat, 1, 100)
	poBad := pickOnePerBlock(r, nPO, 10)
	catBad := pickOnePerBlock(r, nCat, 10)
	poDef, catDef := r.Intn(len(poDefects)), r.Intn(len(catalogDefects))
	var poEntries, catEntries []int
	for len(poEntries) < nPO {
		poEntries = append(poEntries, r.Perm(len(ingestEntries))...)
	}
	catalogEntries := entriesFor("catalog")
	for len(catEntries) < nCat {
		for _, j := range r.Perm(len(catalogEntries)) {
			catEntries = append(catEntries, catalogEntries[j])
		}
	}
	for i, n := range poSizes {
		d := &doc{schema: "po", size: n, entry: poEntries[i]}
		if poBad[i] {
			d.defect = poDefects[poDef%len(poDefects)]
			poDef++
		}
		d.src, d.path = genPO(r, n, false, d.defect)
		c.docs = append(c.docs, d)
	}
	for i, n := range catSizes {
		d := &doc{schema: "catalog", size: n, entry: catEntries[i]}
		if catBad[i] {
			d.defect = catalogDefects[catDef%len(catalogDefects)]
			catDef++
			if d.defect == defDupKey {
				// A duplicate needs two entries in one section.
				n = max(n, 2)
				d.size = n
			}
		}
		d.src, d.path = genCatalog(r, n, 4, d.defect)
		c.docs = append(c.docs, d)
	}
	shuffle(r, c)
	c.probes = probeDocs(r)
	return c
}

// bulkCorpus builds the bulk workload: three large valid documents.
func bulkCorpus(seed int64) *corpus {
	r := rand.New(rand.NewSource(seed))
	c := &corpus{}
	markup, _ := genPO(r, 10000, false, "")
	text, _ := genPO(r, 1000, true, "")
	nested, _ := genCatalog(r, 3000, 60, "")
	c.docs = []*doc{
		{schema: "po", size: 10000, src: markup},
		{schema: "po", size: 1000, src: text},
		{schema: "catalog", size: 3000, src: nested},
	}
	for i, d := range c.docs {
		d.id = i
	}
	c.probes = probeDocs(r)
	return c
}

// probeDocs returns the fixed-size purchase orders whose stream and DOM
// allocation the traced run compares: streaming should allocate less
// than the tree path, and not more as documents grow.
func probeDocs(r *rand.Rand) map[int]*doc {
	out := map[int]*doc{}
	for _, n := range []int{10, 1000} {
		src, _ := genPO(r, n, false, "")
		out[n] = &doc{schema: "po", size: n, src: src}
	}
	return out
}

func shuffle(r *rand.Rand, c *corpus) {
	r.Shuffle(len(c.docs), func(i, j int) { c.docs[i], c.docs[j] = c.docs[j], c.docs[i] })
	for i, d := range c.docs {
		d.id = i
	}
}

var (
	firstNames = []string{"Alice", "Robert", "Chen", "Dana", "Emeka", "Farah", "Gustav", "Hana", "Ivo", "Jun"}
	lastNames  = []string{"Smith", "Okafor", "Larsen", "Tanaka", "Novak", "Silva", "Haddad", "Kowalski"}
	streets    = []string{"Maple Street", "Oak Avenue", "Harbor Road", "Elm Court", "Ridge Lane", "Mill Way"}
	cities     = []string{"Mill Valley", "Old Town", "Springfield", "Riverside", "Lakeview", "Fairview"}
	states     = []string{"CA", "PA", "NY", "TX", "WA", "OR", "IL"}
	products   = []string{"Lawnmower", "Baby Monitor", "Garden Hose", "Desk Lamp", "Kettle", "Toaster",
		"Bookshelf", "Rain Boots", "Camera Strap", "Coffee Grinder"}
	words = strings.Fields("please confirm delivery window gift wrap fragile contents leave at the back door " +
		"call before arrival second floor office reception desk holds parcels after five")
)

// step is one location step as violation paths spell it: the first
// sibling of a name carries no predicate, the n-th (n > 1) carries [n].
func step(name string, n int) string {
	if n == 1 {
		return name
	}
	return fmt.Sprintf("%s[%d]", name, n)
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

func sentence(r *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(pick(r, words))
	}
	return b.String()
}

func date(r *rand.Rand) string {
	return fmt.Sprintf("%04d-%02d-%02d", 1995+r.Intn(30), 1+r.Intn(12), 1+r.Intn(28))
}

func writeAddress(b *bytes.Buffer, r *rand.Rand, tag string) {
	fmt.Fprintf(b, "  <%s country=\"US\">\n    <name>%s %s</name>\n    <street>%d %s</street>\n"+
		"    <city>%s</city>\n    <state>%s</state>\n    <zip>%05d</zip>\n  </%s>\n",
		tag, pick(r, firstNames), pick(r, lastNames), 1+r.Intn(999), pick(r, streets),
		pick(r, cities), pick(r, states), r.Intn(100000), tag)
}

// genPO writes a purchase order with n items. textHeavy gives every item
// a long comment. A defect is injected into one seeded item and its
// expected violation path returned.
func genPO(r *rand.Rand, n int, textHeavy bool, defect string) ([]byte, string) {
	var b bytes.Buffer
	b.Grow(n * 220)
	fmt.Fprintf(&b, "<?xml version=\"1.0\"?>\n<purchaseOrder orderDate=\"%s\">\n", date(r))
	writeAddress(&b, r, "shipTo")
	writeAddress(&b, r, "billTo")
	if r.Intn(2) == 0 {
		fmt.Fprintf(&b, "  <comment>%s</comment>\n", sentence(r, 3+r.Intn(8)))
	}
	b.WriteString("  <items>\n")
	bad := -1
	if defect != "" {
		bad = r.Intn(n)
	}
	path := ""
	for i := 0; i < n; i++ {
		d := ""
		if i == bad {
			d = defect
			path = "/purchaseOrder/items/" + step("item", i+1)
		}
		partNum := fmt.Sprintf("%03d-%c%c", r.Intn(1000), 'A'+r.Intn(26), 'A'+r.Intn(26))
		if d == defPattern {
			// Attribute violations are reported at the owning element.
			partNum = fmt.Sprintf("%02d-%c%c%c", r.Intn(100), 'A'+r.Intn(26), 'A'+r.Intn(26), 'a'+r.Intn(26))
		}
		fmt.Fprintf(&b, "    <item partNum=\"%s\">\n", partNum)
		if d != defMissing {
			fmt.Fprintf(&b, "      <productName>%s</productName>\n", pick(r, products))
		} else {
			path += "/quantity"
		}
		qty := 1 + r.Intn(99)
		if d == defFacet {
			qty = 100 + r.Intn(900)
			path += "/quantity"
		}
		fmt.Fprintf(&b, "      <quantity>%d</quantity>\n      <USPrice>%d.%02d</USPrice>\n", qty, r.Intn(1000), r.Intn(100))
		if d == defExtra {
			fmt.Fprintf(&b, "      <color>%s</color>\n", pick(r, []string{"red", "green", "blue"}))
			path += "/color"
		}
		switch {
		case textHeavy:
			fmt.Fprintf(&b, "      <comment>%s</comment>\n", sentence(r, 150+r.Intn(100)))
		case r.Intn(4) == 0:
			fmt.Fprintf(&b, "      <comment>%s</comment>\n", sentence(r, 2+r.Intn(6)))
		}
		switch {
		case d == defDate:
			fmt.Fprintf(&b, "      <shipDate>%04d-13-%02d</shipDate>\n", 1995+r.Intn(30), 1+r.Intn(28))
			path += "/shipDate"
		case r.Intn(2) == 0:
			fmt.Fprintf(&b, "      <shipDate>%s</shipDate>\n", date(r))
		}
		b.WriteString("    </item>\n")
	}
	b.WriteString("  </items>\n</purchaseOrder>\n")
	return b.Bytes(), path
}

// catalogGen carries the counters that keep IDs and key values unique
// across one catalog document.
type catalogGen struct {
	r       *rand.Rand
	b       bytes.Buffer
	section int
	code    int
	ids     []string
}

// genCatalog writes a catalog with n entries spread over sections nested
// up to depth levels. A defect is injected into one seeded section and
// its expected violation path returned.
func genCatalog(r *rand.Rand, n, depth int, defect string) ([]byte, string) {
	g := &catalogGen{r: r}
	g.b.Grow(n * 300)
	fmt.Fprintf(&g.b, "<?xml version=\"1.0\"?>\n<catalog xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\""+
		" issued=\"%sT%02d:%02d:%02dZ\">\n", date(r), r.Intn(24), r.Intn(60), r.Intn(60))
	// Split the entries over top-level sections, each a chain of nested
	// sections, so depth is exercised without unbounded recursion.
	tops := max(1, min(4, n/8+1))
	per := n / tops
	extra := n % tops
	bad := -1
	if defect != "" {
		bad = r.Intn(tops)
	}
	path := ""
	for t := 0; t < tops; t++ {
		k := per
		if t < extra {
			k++
		}
		d := ""
		if t == bad {
			d = defect
		}
		p := g.section1("/catalog/"+step("section", t+1), k, depth, 1, d)
		if p != "" {
			path = p
		}
	}
	g.b.WriteString("</catalog>\n")
	return g.b.Bytes(), path
}

// section1 writes one section holding k entries in total, nesting the
// remainder one level deeper while depth allows. It returns the expected
// violation path when it injected defect.
func (g *catalogGen) section1(path string, k, depth, level int, defect string) string {
	r := g.r
	g.section++
	id := fmt.Sprintf("s%d", g.section)
	indent := strings.Repeat(" ", 2*level)
	see := ""
	if len(g.ids) > 0 && r.Intn(3) == 0 {
		see = fmt.Sprintf(" see=\"%s\"", g.ids[r.Intn(len(g.ids))])
	}
	expected := ""
	if defect == defIDRef {
		see = fmt.Sprintf(" see=\"missing%d\"", g.section)
		expected = path + "/@see"
		defect = ""
	}
	g.ids = append(g.ids, id)
	fmt.Fprintf(&g.b, "%s<section id=\"%s\"%s>\n%s  <title>%s</title>\n", indent, id, see, indent, sentence(r, 2+r.Intn(3)))
	here := k
	if level < depth {
		here = min(k, 1+r.Intn(3))
	}
	if defect == defDupKey {
		here = min(k, max(here, 2))
	}
	var codes []string
	for i := 0; i < here; i++ {
		g.code++
		code := fmt.Sprintf("%c%c%c-%04d", 'A'+g.code/10000%26, 'A'+r.Intn(26), 'A'+r.Intn(26), g.code%10000)
		if defect == defDupKey && i == here-1 && len(codes) > 0 {
			// Identity-constraint violations are reported at the
			// element that declares the constraint.
			code = codes[0]
			expected = path
			defect = ""
		}
		codes = append(codes, code)
		xsiType := "BookEntry"
		if r.Intn(2) == 1 {
			xsiType = "DiscEntry"
		}
		typeAttr := fmt.Sprintf(" xsi:type=\"%s\"", xsiType)
		if defect == defAbstract {
			typeAttr = ""
			expected = path + "/" + step("entry", i+1)
			defect = ""
		}
		fmt.Fprintf(&g.b, "%s  <entry%s code=\"%s\">\n%s    <name>%s</name>\n%s    <price>%d.%02d</price>\n",
			indent, typeAttr, code, indent, pick(r, products), indent, r.Intn(500), r.Intn(100))
		if typeAttr == "" || xsiType == "BookEntry" {
			fmt.Fprintf(&g.b, "%s    <isbn>%03d-%010d</isbn>\n%s    <published>%s</published>\n",
				indent, r.Intn(1000), r.Int63n(1e10), indent, date(r))
		} else {
			fmt.Fprintf(&g.b, "%s    <tracks>%d</tracks>\n%s    <length>PT%dM%dS</length>\n",
				indent, 1+r.Intn(99), indent, 1+r.Intn(80), r.Intn(60))
		}
		fmt.Fprintf(&g.b, "%s  </entry>\n", indent)
	}
	for i := 0; i < len(codes) && i < 2; i++ {
		fmt.Fprintf(&g.b, "%s  <link to=\"%s\"/>\n", indent, codes[r.Intn(len(codes))])
	}
	if rest := k - here; rest > 0 {
		g.section1(path+"/section", rest, depth, level+1, "")
	}
	fmt.Fprintf(&g.b, "%s</section>\n", indent)
	return expected
}
