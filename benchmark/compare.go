package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResult(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// noise estimates how far a file's pooled value of a metric may sit from
// the true one: the interquartile range of the metric's per-round values
// over their median, divided by the square root of the number of rounds
// (the pooled value averages that many rounds).
func noise(w *workloadResult, metric string) float64 {
	rounds := w.RoundValues[metric]
	if len(rounds) < 2 {
		return math.Inf(1)
	}
	return spread(rounds) / math.Sqrt(float64(len(rounds)))
}

// compareFiles prints one row per workload and end-to-end metric of the
// change b against the parent a, then one row per count that both files
// mark exact and that differs. It reports whether nothing regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	ea, eb := a.Env, b.Env
	ea.Commit, eb.Commit = "", ""
	if ea != eb {
		return false, fmt.Errorf("environments differ in more than the commit:\n  %s: %+v\n  %s: %+v", pathA, a.Env, pathB, b.Env)
	}
	fmt.Fprintf(w, "# parent %s (%s), change %s (%s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	ok := true
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, x := range b.Workloads {
			if x.Name == wa.Name {
				wb = x
			}
		}
		if wb == nil {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		if wb.Failed > wa.Failed {
			ok = false
			fmt.Fprintf(w, "%-16s %-20s %d -> %d failed jobs  regression\n", wa.Name, "failed", wa.Failed, wb.Failed)
		}
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			for _, d := range endToEnd {
				n := max(noise(wa, d.Name), noise(wb, d.Name))
				va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
				worse := ratio(vb-va, va) // every end-to-end metric is lower-is-better
				verdict := "unchanged"
				switch {
				case worse > d.Bound:
					verdict = "regression"
					ok = false
				case n > d.Bound:
					verdict = "unresolved"
				case worse < -d.Bound:
					verdict = "improved"
				}
				fmt.Fprintf(w, "%-16s %-20s %12.6g -> %12.6g %-4s %+7.2f%%  bound %4.1f%%  noise %4.1f%%  %s\n",
					wa.Name, d.Name, va, vb, d.Unit, worse*100, d.Bound*100, n*100, verdict)
			}
		}
		for _, d := range perLayer {
			ma, inA := wa.PerLayer[d.Name]
			mb, inB := wb.PerLayer[d.Name]
			if inA && inB && ma.Stability == "exact" && mb.Stability == "exact" && ma.Value != mb.Value {
				fmt.Fprintf(w, "%-16s %-32s %12.6g -> %12.6g %-5s exact count changed\n", wa.Name, d.Name, ma.Value, mb.Value, d.Unit)
			}
		}
	}
	return ok, nil
}
