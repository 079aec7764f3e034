package main

import (
	"fmt"
	"runtime"
	"time"

	"crossinv/internal/bench"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
	_ "crossinv/internal/workloads/blackscholes"
	_ "crossinv/internal/workloads/cg"
	_ "crossinv/internal/workloads/eclat"
	_ "crossinv/internal/workloads/equake"
	_ "crossinv/internal/workloads/jacobi"
	_ "crossinv/internal/workloads/llubench"
	_ "crossinv/internal/workloads/symm"
)

// The kernel lists. DOMORE runs its paper targets; FLUIDANIMATE (161 ms a
// run) would dominate the round and PHASED's run-to-run spread is too wide.
// SPECCROSS runs the kernels whose speculation is profitable at 2 workers.
var (
	domoreKernels    = []string{"CG", "BLACKSCHOLES", "ECLAT", "LLUBENCH", "SYMM"}
	speccrossKernels = []string{"CG", "EQUAKE", "JACOBI", "SYMM"}
)

// barrierKernels are the speculation-capable kernels of either list: the
// traced run times each under plain barriers, the bar both engines must
// beat.
func barrierKernels() []string {
	var out []string
	seen := map[string]bool{}
	for _, k := range append(append([]string(nil), domoreKernels...), speccrossKernels...) {
		e, err := workloads.Find(k)
		if err == nil && e.SpecOK && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// kernel is one cell of a round with its set-up products.
type kernel struct {
	entry workloads.Entry
	ref   uint64 // the hand-written RunSequential checksum
	kind  signature.Kind
	dist  int64 // §4.4 profiled speculation distance
	spec  bool  // speculation profitable at this worker count
}

// cellStats is what one engine run reported.
type cellStats struct {
	dm domore.Stats
	sc speccross.Stats
}

// setupKernels resolves the kernel list: the sequential reference checksum
// of each, for SPECCROSS the §4.4 profiled distance, and one engine run of
// each checked against its reference before anything is measured.
func setupKernels(engine string, names []string, workers int) ([]kernel, error) {
	ks := make([]kernel, len(names))
	for i, name := range names {
		e, err := workloads.Find(name)
		if err != nil {
			return nil, err
		}
		k := kernel{entry: e, kind: signature.Range}
		if e.Exact {
			k.kind = signature.Exact
		}
		ref := e.Make(1)
		ref.RunSequential()
		k.ref = ref.Checksum()
		switch engine {
		case "domore":
			if !e.DomoreOK {
				return nil, fmt.Errorf("%s does not run under DOMORE", name)
			}
		case "speccross":
			if !e.SpecOK {
				return nil, fmt.Errorf("%s does not run under SPECCROSS", name)
			}
			pr := speccross.Profile(e.Make(1).(speccross.Workload), k.kind, 8)
			k.dist, k.spec = pr.Recommended(workers)
		}
		inst := e.Make(1)
		k.run(engine, inst, workers)
		if inst.Checksum() != k.ref {
			return nil, fmt.Errorf("%s under %s differs from its sequential reference", name, engine)
		}
		ks[i] = k
	}
	return ks, nil
}

// run executes the kernel's instance under engine. An unprofitable
// SPECCROSS kernel runs under barriers, the runtime's own policy.
func (k *kernel) run(engine string, inst workloads.Instance, workers int) cellStats {
	var st cellStats
	switch engine {
	case "domore":
		st.dm = domore.Run(inst.(domore.Workload), domore.Options{Workers: workers})
	case "speccross":
		if !k.spec {
			speccross.RunBarriers(inst.(speccross.Workload), workers)
			break
		}
		st.sc = speccross.Run(inst.(speccross.Workload), speccross.Config{
			Workers: workers, CheckpointEvery: 200, SigKind: k.kind, SpecDistance: k.dist,
		})
	}
	return st
}

// roundTrace is the per-cell record of a traced round.
type roundTrace struct {
	cellMs []float64 // by kernel index
	allocs uint64
	stats  cellStats // summed over the round
}

// kernelRound runs every kernel once in a seeded order on fresh instances
// and checks each result against its reference. Instance construction and
// checking stay outside the timed span. With tr non-nil, each cell is
// timed and bracketed by runtime.MemStats reads (the traced run only).
func kernelRound(engine string, ks []kernel, rng *workloads.Rng, workers int, tr *roundTrace) (time.Duration, bool) {
	insts := make([]workloads.Instance, len(ks))
	for i := range ks {
		insts[i] = ks[i].entry.Make(1)
	}
	order := rng.Perm(len(ks))
	var before, after runtime.MemStats
	start := time.Now()
	for _, i := range order {
		if tr == nil {
			ks[i].run(engine, insts[i], workers)
			continue
		}
		runtime.ReadMemStats(&before)
		t := time.Now()
		st := ks[i].run(engine, insts[i], workers)
		tr.cellMs[i] = ms(time.Since(t))
		runtime.ReadMemStats(&after)
		tr.allocs += after.Mallocs - before.Mallocs
		tr.stats.add(st)
	}
	lat := time.Since(start)
	ok := true
	for i := range ks {
		if insts[i].Checksum() != ks[i].ref {
			ok = false
		}
	}
	return lat, ok
}

func (s *cellStats) add(o cellStats) {
	s.dm.SyncConditions += o.dm.SyncConditions
	s.dm.AddrChecks += o.dm.AddrChecks
	s.dm.Stalls += o.dm.Stalls
	s.sc.Epochs += o.sc.Epochs
	s.sc.Misspeculations += o.sc.Misspeculations
	s.sc.ReexecutedEpochs += o.sc.ReexecutedEpochs
	s.sc.Comparisons += o.sc.Comparisons
	s.sc.PrefilterChecks += o.sc.PrefilterChecks
	s.sc.PrefilterHits += o.sc.PrefilterHits
	s.sc.RangeStalls += o.sc.RangeStalls
	s.sc.Checkpoints += o.sc.Checkpoints
}

// warmup is how long untimed rounds run before the measurement, so the
// heap and caches reach their steady state.
const warmup = time.Second

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// runKernels is the domore-kernels and speccross-kernels workload: rounds
// of every kernel of the list, run once each in a seeded order, for the
// run's duration.
func runKernels(cfg config, engine string, names []string) (*result, error) {
	printEnv(cfg, 1, "")
	var ks []kernel
	var setups []float64
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		ks, err = setupKernels(engine, names, cfg.workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	for _, k := range ks {
		if engine == "speccross" && !k.spec {
			fmt.Printf("note %s: speculation unprofitable at %d workers; runs under barriers\n", k.entry.Name, cfg.workers)
		}
	}
	rng := workloads.NewRng(cfg.seed)
	for start := time.Now(); time.Since(start) < warmup; {
		if _, ok := kernelRound(engine, ks, rng, cfg.workers, nil); !ok {
			return nil, fmt.Errorf("warm-up round output differs from the sequential reference")
		}
	}

	loop := func(d time.Duration, traced []roundTrace) (loopStats, []roundTrace) {
		var l loopStats
		start := time.Now()
		for time.Since(start) < d {
			var tr *roundTrace
			if traced != nil {
				traced = append(traced, roundTrace{cellMs: make([]float64, len(ks))})
				tr = &traced[len(traced)-1]
			}
			lat, ok := kernelRound(engine, ks, rng, cfg.workers, tr)
			l.attempted++
			if !ok {
				l.failed++
				continue
			}
			l.lat = append(l.lat, ms(lat))
		}
		l.elapsed = time.Since(start)
		return l, traced
	}

	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		l, _ := loop(total, nil)
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		return e2eResult(l, setups, rss, "rounds", "the benchmark process"), nil
	}

	untraced, _ := loop(total/3, nil)
	tl, rounds := loop(total-total/3, []roundTrace{})
	lm := map[string]float64{}
	shares := map[string]float64{}
	roundMs := bench.Median(tl.lat)
	for i, k := range ks {
		var cell []float64
		for _, r := range rounds {
			cell = append(cell, r.cellMs[i])
		}
		lm[engine+"."+k.entry.Name+"_ms"] = bench.Median(cell)
		shares[k.entry.Name] = bench.Median(cell) / roundMs
	}
	lm[engine+".round_ms"] = roundMs
	per := func(f func(r roundTrace) float64) float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r))
		}
		return bench.Median(xs)
	}
	lm[engine+".allocs"] = per(func(r roundTrace) float64 { return float64(r.allocs) })
	switch engine {
	case "domore":
		lm["domore.sync_conditions"] = per(func(r roundTrace) float64 { return float64(r.stats.dm.SyncConditions) })
		lm["domore.addr_checks"] = per(func(r roundTrace) float64 { return float64(r.stats.dm.AddrChecks) })
		lm["domore.stalls"] = per(func(r roundTrace) float64 { return float64(r.stats.dm.Stalls) })
	case "speccross":
		var epochs, reexec, checks, hits float64
		for _, r := range rounds {
			epochs += float64(r.stats.sc.Epochs)
			reexec += float64(r.stats.sc.ReexecutedEpochs)
			checks += float64(r.stats.sc.PrefilterChecks)
			hits += float64(r.stats.sc.PrefilterHits)
		}
		lm["speccross.misspeculations"] = per(func(r roundTrace) float64 { return float64(r.stats.sc.Misspeculations) })
		lm["speccross.reexecuted_epochs"] = per(func(r roundTrace) float64 { return float64(r.stats.sc.ReexecutedEpochs) })
		lm["speccross.spec_success"] = ratio(epochs-reexec, epochs)
		lm["speccross.comparisons"] = per(func(r roundTrace) float64 { return float64(r.stats.sc.Comparisons) })
		lm["speccross.prefilter_hit_rate"] = ratio(hits, checks)
		lm["speccross.range_stalls"] = per(func(r roundTrace) float64 { return float64(r.stats.sc.RangeStalls) })
		lm["speccross.checkpoints"] = per(func(r roundTrace) float64 { return float64(r.stats.sc.Checkpoints) })
	}
	failed := tl.failed
	for _, name := range barrierKernels() {
		d, ok, err := barrierMs(name, cfg.workers)
		if err != nil {
			return nil, err
		}
		if !ok {
			failed++
		}
		lm["barrier."+name+"_ms"] = d
	}
	lm["trace.overhead_frac"] = 1 - ratio(tl.opsPerS(), untraced.opsPerS())
	fmt.Printf("round shares (%s.<KERNEL>_ms / %s.round_ms, traced median %.2f ms):", engine, engine, roundMs)
	for _, k := range ks {
		fmt.Printf(" %s %.1f%%", k.entry.Name, 100*shares[k.entry.Name])
	}
	fmt.Printf("\ntracing: untraced %.3f rounds/s, traced %.3f rounds/s\n", untraced.opsPerS(), tl.opsPerS())
	attempted := untraced.attempted + tl.attempted + len(barrierKernels())
	failed += untraced.failed
	return layerResult(lm, attempted, failed, engine+"-kernels"), nil
}

// barrierReps is how many barrier runs each reference time is the median of.
const barrierReps = 5

// barrierMs times a kernel under non-speculative barriers (median of
// barrierReps runs) and checks each run's output.
func barrierMs(name string, workers int) (float64, bool, error) {
	e, err := workloads.Find(name)
	if err != nil {
		return 0, false, err
	}
	ref := e.Make(1)
	ref.RunSequential()
	ok := true
	var ts []float64
	for i := 0; i < barrierReps; i++ {
		inst := e.Make(1)
		start := time.Now()
		speccross.RunBarriers(inst.(speccross.Workload), workers)
		ts = append(ts, ms(time.Since(start)))
		if inst.Checksum() != ref.Checksum() {
			ok = false
		}
	}
	return bench.Median(ts), ok, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
