// Command perfbench is the repository's benchmark: bytes in, verdict
// out, over a seeded corpus whose every verdict is known in advance.
//
// Usage (from the repository root, through run.sh, which builds this
// program and cmd/xsdserved from the checked-out source first):
//
//	bash perfbench/run.sh --workload ingest|bulk|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of the traced run. The last line of standard output
// is one JSON object {correct, attempted, failed, metrics}; the line
// before it stamps the run (commit, seed, corpus hash, host). Progress
// and diagnostics go to standard error.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workDir is where runs keep their scratch files (serve schema
// directories, traces), inside the checkout and ignored by git.
const workDir = ".bench_build/perfbench"

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	xsdserved string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "ingest, bulk or serve")
	flag.Int64Var(&o.seed, "seed", 1, "corpus seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.xsdserved, "xsdserved", "", "path of the xsdserved binary built from this checkout (serve workload)")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds <= 0 || (o.workload != "ingest" && o.workload != "bulk" && o.workload != "serve") {
		return fmt.Errorf("usage: --workload ingest|bulk|serve --seed N --seconds S --trace 0|1")
	}
	if err := selfCheck(); err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	var c *corpus
	switch o.workload {
	case "bulk":
		c = bulkCorpus(o.seed)
	default:
		c = ingestCorpus(o.seed)
	}
	if err := checkCorpus(o, c); err != nil {
		return err
	}
	if err := oracleCheck(c); err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	stamp := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"corpus_sha256": c.hash(), "corpus_docs": len(c.docs), "corpus_bytes": c.bytes(),
		"commit": commit(), "source_sha256": sourceHash(),
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "cpu_model": cpuModel(),
	}
	var res *result
	var err error
	if o.workload == "serve" {
		res, err = runServe(o, c, stamp)
	} else {
		res, err = runLibrary(o, c, stamp)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// checkCorpus proves the generator deterministic: the same seed must
// give byte-identical corpora, and another seed a different one.
func checkCorpus(o options, c *corpus) error {
	regen, other := ingestCorpus, ingestCorpus
	if o.workload == "bulk" {
		regen, other = bulkCorpus, bulkCorpus
	}
	if h := regen(o.seed).hash(); h != c.hash() {
		return fmt.Errorf("corpus for seed %d is not deterministic: %s then %s", o.seed, c.hash(), h)
	}
	if other(o.seed+1).hash() == c.hash() {
		return fmt.Errorf("seeds %d and %d gave the same corpus", o.seed, o.seed+1)
	}
	return nil
}

// commit names the checked-out revision when the checkout carries its
// git metadata, read from .git directly so nothing outside the checkout
// is touched; the source hash identifies the tree either way.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash is the SHA-256 over the module's Go sources, go.mod and
// schema files, in path order, skipping hidden directories (build
// output lives there).
func sourceHash() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort stamp
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".xsd") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
