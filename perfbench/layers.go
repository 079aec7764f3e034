package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crossinv/internal/bench"
	"crossinv/internal/core"
	"crossinv/internal/daemon"
	"crossinv/internal/ir"
	"crossinv/internal/plancache"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/transform/mtcg"
)

// The serve workloads' per-layer split is measured in-process, from
// outside each layer: the benchmark calls the public function the daemon
// would call — core.Compile, Compiled.Lint, Oracle, ProfileRegion,
// PlanDOMORE, the planned or profiled engine run, plancache.Put — and
// times it, then times daemon.Server.Execute on the same program. The
// difference is the daemon's own work (other_ms).

// layerTally collects per-program layer times in milliseconds.
type layerTally struct {
	compile, lint, oracle, profile, plan, exec, put, execute, other, allocs []float64
	attributed, whole                                                       float64
	attempted, failed                                                       int
}

// inProcessServer opens a daemon.Server over a fresh cache directory.
func inProcessServer(cfg config, name string) (*daemon.Server, error) {
	return daemon.New(daemon.Config{CacheDir: filepath.Join(cfg.workDir, name), DefaultWorkers: cfg.workers})
}

// errWrongCache marks a reply whose cache label is not the one the
// workload requires: it invalidates the run rather than failing one op.
var errWrongCache = errors.New("wrong cache label: the run is invalid")

// execute runs one in-process request and checks it, bracketing it with
// runtime.MemStats reads for the allocation count.
func execute(srv *daemon.Server, p *program, workers int, wantCache string) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	resp, status := srv.Execute(&daemon.RunRequest{Source: p.source, Mode: "auto", Workers: workers})
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	switch {
	case status != 200:
		return d, 0, fmt.Errorf("in-process status %d: %s", status, resp.Error)
	case resp.Checksum != p.ref:
		return d, 0, fmt.Errorf("in-process checksum %x, reference %x", resp.Checksum, p.ref)
	case resp.Cache != wantCache:
		return d, 0, fmt.Errorf("in-process reply labelled cache %q, want %q: %w", resp.Cache, wantCache, errWrongCache)
	}
	return d, after.Mallocs - before.Mallocs, nil
}

// planned is a compiled program with the artifacts the daemon caches for
// it: the profile and, when auto routing picks DOMORE, the plan.
type planned struct {
	c       *core.Compiled
	region  *ir.Loop
	prof    speccross.ProfileResult
	spec    bool
	par     *mtcg.Parallelized
	layerMs map[string]float64 // compile, lint, oracle, profile, plan, put
}

// plan runs the cold pipeline layer by layer, timing each call. store,
// when non-nil, receives the plan-cache entry the daemon would write.
func plan(p *program, workers int, store *plancache.Store) (*planned, error) {
	pl := &planned{layerMs: map[string]float64{}}
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		pl.layerMs[name] = ms(time.Since(start))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var oracle uint64
	var lintClean bool
	err := timed("compile", func() (err error) { pl.c, err = core.Compile(p.source); return err })
	if err == nil {
		err = timed("lint", func() error { lintClean = !pl.c.Lint().HasErrors(); return nil })
	}
	if err == nil {
		err = timed("oracle", func() (err error) { oracle, err = pl.c.Oracle(); return err })
	}
	if err == nil {
		pl.region, err = pl.c.Region(0)
	}
	if err == nil {
		err = timed("profile", func() (err error) { pl.prof, err = pl.c.ProfileRegion(pl.region, signature.Range); return err })
	}
	if err != nil {
		return nil, err
	}
	if oracle != p.ref {
		return nil, fmt.Errorf("oracle checksum %x, reference %x", oracle, p.ref)
	}
	_, pl.spec = pl.prof.Recommended(workers)
	if !pl.spec {
		if err := timed("plan", func() (err error) { pl.par, err = pl.c.PlanDOMORE(pl.region); return err }); err != nil {
			return nil, err
		}
	}
	if store == nil {
		return pl, nil
	}
	xh := pl.c.XDep().Hash()
	key := plancache.Key{
		SourceHash:  core.SourceHash(p.source),
		Fingerprint: plancache.Fingerprint(core.PipelineVersion, 0, "range", xh),
	}
	entry := plancache.Plan{
		SeqChecksum: oracle, Regions: len(pl.c.Regions), XDepHash: xh, LintClean: lintClean,
		Profile: &plancache.Profile{
			Tasks: pl.prof.Tasks, Epochs: pl.prof.Epochs,
			Conflicts: pl.prof.Conflicts, MinDistance: pl.prof.MinDistance, PerLoop: pl.prof.PerLoop,
		},
	}
	err = timed("put", func() error { return store.Put(key, entry) })
	return pl, err
}

// exec runs the planned program's engine the way auto routing would and
// checks its output.
func (pl *planned) exec(p *program, workers int) (time.Duration, error) {
	start := time.Now()
	var sum uint64
	if pl.spec {
		res, err := pl.c.RunSpecCrossProfiled(pl.region, speccross.Config{Workers: workers, SigKind: signature.Range}, pl.prof)
		if err != nil {
			return 0, err
		}
		sum = res.Env.Checksum()
	} else {
		res, err := pl.c.RunDOMOREPlanned(pl.par, pl.region, domore.Options{Workers: workers})
		if err != nil {
			return 0, err
		}
		sum = res.Env.Checksum()
	}
	d := time.Since(start)
	if sum != p.ref {
		return d, fmt.Errorf("engine checksum %x, reference %x", sum, p.ref)
	}
	return d, nil
}

// coldLayers times every cold-path layer for each program, then the whole
// in-process cold request, and fills lm with the medians.
func coldLayers(lm map[string]float64, progs []program, cfg config) (layerTally, error) {
	var t layerTally
	store, err := plancache.Open(filepath.Join(cfg.workDir, "layers-store"))
	if err != nil {
		return t, err
	}
	srv, err := inProcessServer(cfg, "layers-cold")
	if err != nil {
		return t, err
	}
	for i := range progs {
		p := &progs[i]
		t.attempted++
		pl, err := plan(p, cfg.workers, store)
		var ex, whole time.Duration
		var allocs uint64
		if err == nil {
			ex, err = pl.exec(p, cfg.workers)
		}
		if err == nil {
			whole, allocs, err = execute(srv, p, cfg.workers, "cold")
		}
		if errors.Is(err, errWrongCache) {
			return t, err
		}
		if err != nil {
			t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: in-process layers: %v\n", err)
			continue
		}
		sum := ms(ex)
		for _, v := range pl.layerMs {
			sum += v
		}
		t.compile = append(t.compile, pl.layerMs["compile"])
		t.lint = append(t.lint, pl.layerMs["lint"])
		t.oracle = append(t.oracle, pl.layerMs["oracle"])
		t.profile = append(t.profile, pl.layerMs["profile"])
		if !pl.spec {
			t.plan = append(t.plan, pl.layerMs["plan"])
		}
		t.put = append(t.put, pl.layerMs["put"])
		t.exec = append(t.exec, ms(ex))
		t.execute = append(t.execute, ms(whole))
		t.other = append(t.other, ms(whole)-sum)
		t.allocs = append(t.allocs, float64(allocs))
		t.attributed += sum
		t.whole += ms(whole)
	}
	if err := srv.Shutdown(); err != nil {
		return t, err
	}
	lm["compile_ms"] = bench.Median(t.compile)
	lm["lint_ms"] = bench.Median(t.lint)
	lm["oracle_ms"] = bench.Median(t.oracle)
	lm["profile_ms"] = bench.Median(t.profile)
	lm["plan_ms"] = bench.Median(t.plan)
	lm["plancache.put_ms"] = bench.Median(t.put)
	t.fill(lm)
	fmt.Printf("in-process cold requests: %d (%d planned DOMORE)\n", len(t.execute), len(t.plan))
	return t, nil
}

// hotLayers warms an in-process server with the program set, then for d
// cycles the set, timing the whole hot request and the engine run alone.
func hotLayers(lm map[string]float64, progs []program, cfg config, d time.Duration) (layerTally, error) {
	var t layerTally
	srv, err := inProcessServer(cfg, "layers-hot")
	if err != nil {
		return t, err
	}
	pls := make([]*planned, len(progs))
	for i := range progs {
		if pls[i], err = plan(&progs[i], cfg.workers, nil); err != nil {
			return t, err
		}
		for _, want := range []string{"cold", "hot"} {
			if _, _, err := execute(srv, &progs[i], cfg.workers, want); err != nil {
				return t, err
			}
		}
	}
	start := time.Now()
	for time.Since(start) < d {
		for i := range progs {
			p := &progs[i]
			t.attempted++
			whole, allocs, err := execute(srv, p, cfg.workers, "hot")
			var ex time.Duration
			if err == nil {
				ex, err = pls[i].exec(p, cfg.workers)
			}
			if errors.Is(err, errWrongCache) {
				return t, err
			}
			if err != nil {
				t.failed++
				fmt.Fprintf(os.Stderr, "perfbench: in-process layers: %v\n", err)
				continue
			}
			t.exec = append(t.exec, ms(ex))
			t.execute = append(t.execute, ms(whole))
			t.other = append(t.other, ms(whole)-ms(ex))
			t.allocs = append(t.allocs, float64(allocs))
			t.attributed += ms(ex)
			t.whole += ms(whole)
		}
	}
	if err := srv.Shutdown(); err != nil {
		return t, err
	}
	t.fill(lm)
	// The engine run is the only layer a hot request reaches, so all of
	// the rest is the daemon's dispatch.
	lm["dispatch_ms"] = lm["other_ms"]
	fmt.Printf("in-process hot requests: %d\n", len(t.execute))
	return t, nil
}

// fill records the metrics both serve workloads share.
func (t *layerTally) fill(lm map[string]float64) {
	lm["exec_ms"] = bench.Median(t.exec)
	lm["execute_ms"] = bench.Median(t.execute)
	lm["other_ms"] = bench.Median(t.other)
	lm["daemon.allocs_per_req"] = bench.Median(t.allocs)
	lm["attributed_frac"] = ratio(t.attributed, t.whole)
}

// layerResult reports every per-layer metric: the ones in lm as measured
// and the rest as 0, marked as layers this workload does not exercise.
func layerResult(lm map[string]float64, attempted, failed int, wname string) *result {
	res := &result{attempted: attempted, failed: failed, correct: failed == 0}
	for _, m := range perLayer() {
		v, ok := lm[m.Name]
		note := ""
		if !ok {
			note = "(not exercised by " + wname + ")"
		}
		res.metrics = append(res.metrics, metric{m.Name, m.Unit, v, note})
	}
	return res
}
