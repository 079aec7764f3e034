package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs the workload k times as child processes, seeds seed to
// seed+k-1, and prints each metric's median, quartiles, interquartile
// range over median (the spread the benchmark's bounds are judged by) and
// (max−min)/median. Children run one at a time; each is waited for.
func runSteady(k int, name string, seed uint64, seconds, traced int, daemonBin, workDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced),
			"-daemon", daemonBin, "-work", workDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var jr jsonResult
		if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&jr); err != nil {
			return fmt.Errorf("seed %d: parsing result: %w", s, err)
		}
		if !jr.Correct || jr.Failed > 0 {
			return fmt.Errorf("seed %d: %d of %d ops failed", s, jr.Failed, jr.Attempted)
		}
		fmt.Printf("seed %d:", s)
		for _, m := range sortedKeys(jr.Metrics) {
			values[m] = append(values[m], jr.Metrics[m].Value)
			units[m] = jr.Metrics[m].Unit
			fmt.Printf(" %s=%.4g", m, jr.Metrics[m].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-30s %12s %12s %12s %10s %10s  unit\n", "metric", "q1", "median", "q3", "iqr/med", "range/med")
	for _, m := range sortedKeys(values) {
		xs := values[m]
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("%-30s %12.4f %12.4f %12.4f %10.4f %10.4f  %s\n", m, q1, q2, q3, ratio(q3-q1, q2), ratio(hi-lo, q2), units[m])
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
