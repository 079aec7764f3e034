package main

import (
	"fmt"

	"crossinv/internal/workloads"
)

// program is one generated LNL source the serve workloads send to the
// daemon, with the benchmark's own sequential reference checksum.
type program struct {
	shape  string  // "stencil" or "cg"
	size   float64 // size grade in [0,1): parameters grow with it
	source string
	ref    uint64 // core.Compiled.RunSequential checksum, filled by references
}

// genPrograms returns n programs: every third one CG-shaped (routed to
// DOMORE by the daemon's profile), the others stencil-shaped (routed to
// SPECCROSS). Within each shape, sizes are stratified over [0,1): the
// shape's j-th program takes the midpoint of a stratum, strata in seeded
// order, so every seed sends the same size distribution in a different
// order. Sizes are graded continuously in both shapes, so latency has no
// gap between classes for a percentile to fall into.
//
// A seeded salt makes every source distinct without changing its control
// flow: it is added to data values only, so programs with distinct salts
// never share a cache entry, and each seed's programs compute different
// checksums.
func genPrograms(seed uint64, n int) []program {
	rng := workloads.NewRng(seed)
	count := map[string]int{"stencil": n - n/3, "cg": n / 3}
	strata := map[string][]int{"stencil": rng.Perm(count["stencil"]), "cg": rng.Perm(count["cg"])}
	salt := rng.Intn(1 << 20)
	out := make([]program, n)
	for i := range out {
		shape := "stencil"
		if i%3 == 2 {
			shape = "cg"
		}
		f := (float64(strata[shape][0]) + 0.5) / float64(count[shape])
		strata[shape] = strata[shape][1:]
		if shape == "cg" {
			out[i] = program{shape: shape, size: f, source: cgSource(f, salt+i)}
		} else {
			out[i] = program{shape: shape, size: f, source: stencilSource(f, salt+i)}
		}
	}
	return out
}

// stencilSource is the Fig 1.3 timestep loop (examples/compiler/stencil.lnl)
// with its width and step count graded by f.
func stencilSource(f float64, salt int) string {
	n := 64 + int(f*128)
	t := 10 + int(f*20)
	return fmt.Sprintf(`func stencil() {
  var A[%d], B[%d]
  parfor k = 0 .. %d {
    B[k] = k * 31 %% 97 + %d
  }
  for t = 0 .. %d {
    parfor i = 0 .. %d {
      A[i] = B[i] * 3 + B[i+1]
    }
    parfor j = 1 .. %d {
      B[j] = A[j-1] %% 1009 + t
    }
  }
}
`, n, n+1, n+1, salt, t, n, n+1)
}

// cgSource is the Fig 3.1 CG loop nest (examples/compiler/cg.lnl) with its
// outer trip count and inner width graded by f.
func cgSource(f float64, salt int) string {
	m := 40 + int(f*160)
	w := 50 + int(f*50)
	return fmt.Sprintf(`func cg() {
  var S[%d], E[%d], C[120], IDX[%d]
  parfor p = 0 .. %d {
    S[p] = p * 9 %% 300
  }
  parfor q = 0 .. %d {
    E[q] = S[q] %% 300 + 9
  }
  parfor z = 0 .. %d {
    IDX[z] = z * 17 %% 120
  }
  for i = 0 .. %d {
    start = S[i] %% 391
    end = start + %d
    parfor j = start .. end {
      C[IDX[j]] = C[IDX[j]] * 3 + j + %d
    }
  }
}
`, m, m, 400+w, m, m, 400+w, m, w, salt)
}
