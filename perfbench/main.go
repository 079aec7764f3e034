// Command perfbench is crossinv's benchmark: four closed-loop workloads
// that time the runtime engines on the paper's kernel ports and a real
// crossinvd child process over loopback HTTP, check every output against
// an independent sequential reference, and print every metric by name and
// unit. The last line of standard output is the run's JSON result.
//
// Usage (normally through run.sh, which builds this command and crossinvd
// from source first):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 -daemon BIN -work DIR
//	perfbench --workload NAME --seed N --seconds S -steady K ...   # K runs, seeds N..N+K-1
//	perfbench -spec                                                # print BENCHMARK.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run and reports the per-layer metrics. README.md maps each layer
// to its metrics and to the workloads that should move them.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"crossinv/internal/bench"
)

// config is one run's settings.
type config struct {
	seed      uint64
	seconds   int
	trace     bool
	workers   int    // engine worker count (nproc)
	daemonBin string // crossinvd binary, for the serve workloads
	workDir   string // scratch directory owned by this run
}

// workload is one benchmark workload; run performs a full run (set-up,
// measurement, output checks) and returns its result.
type workload struct {
	name, why string
	run       func(cfg config) (*result, error)
}

var allWorkloads = []workload{
	{
		name: "domore-kernels",
		why:  "DOMORE rounds over CG BLACKSCHOLES ECLAT LLUBENCH SYMM, its paper targets: scheduler, shadow memory and SPSC queues do the work; FLUIDANIMATE is too slow, PHASED too noisy",
		run:  func(cfg config) (*result, error) { return runKernels(cfg, "domore", domoreKernels) },
	},
	{
		name: "speccross-kernels",
		why:  "SPECCROSS rounds over CG EQUAKE JACOBI SYMM, all profitable at 2 workers: signatures, checker and checkpoints do the work; EQUAKE adds the allocation load",
		run:  func(cfg config) (*result, error) { return runKernels(cfg, "speccross", speccrossKernels) },
	},
	{
		name: "serve-hot",
		why:  "nproc keep-alive clients cycle warmed stencil and CG programs through crossinvd in auto mode: dispatch, routing and interpreted engines; every analysis stage is bypassed",
		run:  runServeHot,
	},
	{
		name: "serve-cold",
		why:  "1 client sends a fixed count of never-seen programs to an empty cache: parse, analysis, oracle, profile, DOMORE plan and fsync'd plan-cache writes",
		run:  runServeCold,
	},
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", runSeconds, "measurement length in seconds")
		traced    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		daemonBin = flag.String("daemon", ".bench_build/perfbench/crossinvd", "crossinvd binary")
		workDir   = flag.String("work", ".bench_build/perfbench/work", "scratch directory")
		steady    = flag.Int("steady", 0, "run the workload this many times with consecutive seeds and report each metric's spread")
		printSpec = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printSpec {
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames()))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *steady > 0 {
		if err := runSteady(*steady, *name, *seed, *seconds, *traced, *daemonBin, *workDir); err != nil {
			fatal(err)
		}
		return
	}
	work, err := os.MkdirTemp(mkdirAll(*workDir), w.name+"-")
	if err != nil {
		fatal(err)
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *traced == 1,
		workers: runtime.NumCPU(), daemonBin: *daemonBin, workDir: work,
	}
	res, err := w.run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	if err := res.print(os.Stdout); err != nil {
		fatal(err)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// printEnv stamps the run's host and settings, so a comparison can tell
// results from mismatched hosts apart.
func printEnv(cfg config, clients int, cacheDir string) {
	env := bench.CaptureEnv(".")
	fsType := "-"
	if cacheDir != "" {
		fsType = filesystem(cacheDir)
	}
	rev := env.GitRev
	if rev == "" {
		rev = "unknown"
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d workers=%d go=%s git=%s seed=%d cache_fs=%s clients=%d cpu=%q\n",
		env.NumCPU, env.GOMAXPROCS, cfg.workers, env.GoVersion, rev, cfg.seed, fsType, clients, env.CPUModel)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
