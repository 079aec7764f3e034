package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"crossinv/internal/daemon"
	"crossinv/internal/workloads"
)

func TestProgramsDeterministicPerSeed(t *testing.T) {
	a, b := genPrograms(7, 40), genPrograms(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different program lists")
	}
	if reflect.DeepEqual(a, genPrograms(8, 40)) {
		t.Fatal("different seeds generated the same program list")
	}
}

func TestColdProgramsPairwiseDistinct(t *testing.T) {
	progs := genPrograms(3, runSeconds*coldPerSecond)
	seen := map[string]int{}
	for i, p := range progs {
		if j, ok := seen[p.source]; ok {
			t.Fatalf("programs %d and %d have the same source", j, i)
		}
		seen[p.source] = i
	}
}

func TestProgramSizesStratifiedPerShape(t *testing.T) {
	progs := genPrograms(11, 31)
	count := map[string]int{}
	for _, p := range progs {
		count[p.shape]++
	}
	if count["stencil"] != 21 || count["cg"] != 10 {
		t.Fatalf("shape counts %v, want 21 stencil and 10 cg", count)
	}
	taken := map[string]map[int]bool{"stencil": {}, "cg": {}}
	for _, p := range progs {
		s := int(p.size * float64(count[p.shape]))
		if p.size != (float64(s)+0.5)/float64(count[p.shape]) || taken[p.shape][s] {
			t.Fatalf("%s size %.4f is not the midpoint of a stratum of its own", p.shape, p.size)
		}
		taken[p.shape][s] = true
	}
}

func TestProgramsCompileWithOneRegion(t *testing.T) {
	progs := genPrograms(5, 6)
	if err := references(progs); err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		pl, err := plan(&p, 2, nil)
		if err != nil {
			t.Fatalf("%s program: %v", p.shape, err)
		}
		if len(pl.c.Regions) != 1 {
			t.Fatalf("%s program has %d regions, want 1", p.shape, len(pl.c.Regions))
		}
	}
}

func TestPercentileFlag(t *testing.T) {
	if note := percentileNote(99, 0.9); !strings.Contains(note, "FLAGGED") {
		t.Errorf("p90 of 99 samples has 9 beyond it and must be flagged: %q", note)
	}
	if note := percentileNote(100, 0.9); strings.Contains(note, "FLAGGED") {
		t.Errorf("p90 of 100 samples has 10 beyond it: %q", note)
	}
	if got := percentile([]float64{4, 1, 3, 2, 5}, 0.9); got != 4.6 {
		t.Errorf("percentile = %v, want 4.6", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !validName(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range allWorkloads {
		check(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, m := range endToEnd {
		check(m.Name)
	}
	for _, m := range perLayer() {
		check(m.Name)
	}
	for _, bad := range []string{"", ".x", "a b", "p50/ms"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// The committed BENCHMARK.json must be what -spec prints.
func TestBenchmarkJSONCurrent(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
}

func TestKernelRoundChecksOutputs(t *testing.T) {
	ks, err := setupKernels("domore", []string{"CG", "ECLAT"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := workloads.NewRng(1)
	if _, ok := kernelRound("domore", ks, rng, 2, nil); !ok {
		t.Fatal("a correct round failed its reference check")
	}
	ks[1].ref++
	if _, ok := kernelRound("domore", ks, rng, 2, nil); ok {
		t.Fatal("a round with a wrong reference passed its check")
	}
}

func TestServeLoopChecksRepliesAndCacheLabels(t *testing.T) {
	srv, err := daemon.New(daemon.Config{CacheDir: t.TempDir(), DefaultWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown()
	progs := genPrograms(9, 3)
	for i := range progs {
		progs[i].source = stencilSource(0, i) // the smallest size keeps the test fast
	}
	if err := references(progs); err != nil {
		t.Fatal(err)
	}
	c := newClient(hs.URL, 2, 2)
	order := []int{0, 1, 2}
	l, _, err := closedLoop(c, progs, order, 1, 0, "cold")
	if err != nil || l.attempted != 3 || l.failed != 0 {
		t.Fatalf("cold pass: %+v, %v", l, err)
	}
	if _, _, err := closedLoop(c, progs, order, 2, 0, "cold"); err == nil {
		t.Fatal("hot replies passed as cold: a wrong cache label must invalidate the run")
	}
	progs[1].ref++
	l, _, err = closedLoop(c, progs, order, 2, 0, "hot")
	if err != nil || l.failed != 1 {
		t.Fatalf("a wrong checksum must count as one failed op: %+v, %v", l, err)
	}
}

// validName reports whether a metric or workload name is made of letters,
// digits, '_', '.' and '-', starts with a letter or digit, and is at most
// 64 long.
func validName(name string) bool {
	if name == "" || len(name) > 64 || strings.IndexByte("_.-", name[0]) >= 0 {
		return false
	}
	for _, c := range name {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.ContainsRune("_.-", c)
		if !ok {
			return false
		}
	}
	return true
}
