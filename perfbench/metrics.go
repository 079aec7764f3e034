package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"crossinv/internal/bench"
)

// e2eMetric is one end-to-end metric of BENCHMARK.json. Bound is the share
// of the parent's median by which the metric may worsen before a change
// counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is one per-layer metric of BENCHMARK.json (no bound).
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics every workload reports with --trace 0. The
// failure fraction is not among them: it is 0 at a correct commit, so a
// share-of-median bound cannot hold it; the result's attempted and failed
// fields carry it, and the report prints it as fail_frac.
var endToEnd = []e2eMetric{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics every workload reports with --trace 1. A
// layer a workload does not exercise reports 0 (its work there is none),
// and the printed table marks it as not exercised.
func perLayer() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string) {
		out = append(out, layerMetric{name, unit, better})
	}
	for _, k := range domoreKernels {
		add("domore."+k+"_ms", "ms", "lower")
	}
	add("domore.round_ms", "ms", "lower")
	add("domore.sync_conditions", "count", "lower")
	add("domore.addr_checks", "count", "lower")
	add("domore.stalls", "count", "lower")
	add("domore.allocs", "count", "lower")
	for _, k := range speccrossKernels {
		add("speccross."+k+"_ms", "ms", "lower")
	}
	add("speccross.round_ms", "ms", "lower")
	add("speccross.misspeculations", "count", "lower")
	add("speccross.reexecuted_epochs", "count", "lower")
	add("speccross.spec_success", "frac", "higher")
	add("speccross.comparisons", "count", "lower")
	add("speccross.prefilter_hit_rate", "frac", "lower")
	add("speccross.range_stalls", "count", "lower")
	add("speccross.checkpoints", "count", "lower")
	add("speccross.allocs", "count", "lower")
	for _, k := range barrierKernels() {
		add("barrier."+k+"_ms", "ms", "lower")
	}
	add("compile_ms", "ms", "lower")
	add("lint_ms", "ms", "lower")
	add("plan_ms", "ms", "lower")
	add("oracle_ms", "ms", "lower")
	add("exec_ms", "ms", "lower")
	add("profile_ms", "ms", "lower")
	add("plancache.put_ms", "ms", "lower")
	add("execute_ms", "ms", "lower")
	add("server_ms", "ms", "lower")
	add("transport_ms", "ms", "lower")
	add("dispatch_ms", "ms", "lower")
	add("daemon.allocs_per_req", "count", "lower")
	add("route.speccross_frac", "frac", "higher")
	add("misspecs_per_req", "count", "lower")
	add("other_ms", "ms", "lower")
	add("attributed_frac", "frac", "higher")
	add("trace.overhead_frac", "frac", "lower")
	return out
}

// spec is BENCHMARK.json: the command, the workloads and why each was
// chosen, and the metrics. The layer→metric→workload map does not fit its
// fixed keys; README.md in this directory carries it.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []specLoad    `json:"workloads"`
	EndToEnd   []e2eMetric   `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures.
const runSeconds = 27

func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range allWorkloads {
		s.Workloads = append(s.Workloads, specLoad{w.name, w.why})
	}
	return s
}

func writeSpec(w io.Writer) error {
	raw, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// metric is one measured value; note, when set, explains it in the
// printed report (sample counts, "not exercised").
type metric struct {
	name, unit string
	value      float64
	note       string
}

// result is one run's outcome: the benchmark's last output line.
type result struct {
	attempted, failed int
	correct           bool
	metrics           []metric
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// print writes the human-readable report and then, as the last line, the
// JSON result.
func (r *result) print(w io.Writer) error {
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-30s %14s  %s\n", "metric", "value", "unit")
	jr := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonValue{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a finite number", m.name)
		}
		fmt.Fprintf(w, "%-30s %14.4f  %-6s %s\n", m.name, m.value, m.unit, m.note)
		jr.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	fmt.Fprintf(w, "%-30s %14.4f  %-6s (%d failed of %d attempted)\n", "fail_frac", failFrac, "frac", r.failed, r.attempted)
	raw, err := json.Marshal(&jr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks; 0 when empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// beyond is the number of samples of n that lie above the p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// minBeyond is how many samples must lie beyond a reported percentile for
// it to count as measured rather than flagged.
const minBeyond = 10

// percentileNote describes a reported percentile's sample support and
// flags it when fewer than minBeyond samples lie beyond it.
func percentileNote(n int, p float64) string {
	b := beyond(n, p)
	note := fmt.Sprintf("(n=%d, %d beyond)", n, b)
	if b < minBeyond {
		note += fmt.Sprintf(" FLAGGED: fewer than %d samples beyond", minBeyond)
	}
	return note
}

// loopStats is a measured closed loop.
type loopStats struct {
	lat               []float64 // per completed op, ms
	attempted, failed int
	elapsed           time.Duration
}

func (l *loopStats) opsPerS() float64 {
	return float64(l.attempted-l.failed) / l.elapsed.Seconds()
}

// e2eResult assembles a timed run's end-to-end metrics; ops names the op
// and rssOf the process whose peak resident set was read.
func e2eResult(l loopStats, setups []float64, rss float64, ops, rssOf string) *result {
	return &result{
		attempted: l.attempted, failed: l.failed, correct: l.failed == 0,
		metrics: []metric{
			{"ops_per_s", "1/s", l.opsPerS(), fmt.Sprintf("(%d %s in %.1fs)", l.attempted-l.failed, ops, l.elapsed.Seconds())},
			{"p50_ms", "ms", bench.Median(l.lat), percentileNote(len(l.lat), 0.5)},
			{"p90_ms", "ms", percentile(l.lat, 0.9), percentileNote(len(l.lat), 0.9)},
			{"setup_s", "s", bench.Median(setups), fmt.Sprintf("(median of %d)", len(setups))},
			{"peak_rss_mb", "MB", rss, "(VmHWM of " + rssOf + ")"},
		},
	}
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the statistic the steadiness proof is judged by.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
