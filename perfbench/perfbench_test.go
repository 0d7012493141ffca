package main

import "testing"

// TestSelfChecks runs the checks every benchmark run starts with:
// quantile and self-time arithmetic, corpus determinism, and an oracle
// that rejects flipped verdicts.
func TestSelfChecks(t *testing.T) {
	if err := selfCheck(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"ingest", "bulk"} {
		o := options{workload: w, seed: 7}
		c := ingestCorpus(o.seed)
		if w == "bulk" {
			c = bulkCorpus(o.seed)
		}
		if err := checkCorpus(o, c); err != nil {
			t.Fatal(err)
		}
		if err := oracleCheck(c); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorpusVerdicts sends every ingest document through every entry
// point and requires its known answer from each.
func TestCorpusVerdicts(t *testing.T) {
	env, err := newLibEnv()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		var cnt counter
		crossCheck(env, ingestCorpus(seed), ingestEntries, &cnt)
		if cnt.failed > 0 {
			t.Errorf("seed %d: %d of %d verdicts wrong: %v", seed, cnt.failed, cnt.attempted, cnt.reasons)
		}
	}
}
