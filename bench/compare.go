package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runSet is a results file: every run -json has appended to it.
type runSet struct {
	Runs []*result `json:"runs"`
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// appendRun adds one run to the results file at path, creating it if needed.
func appendRun(path string, r *result) error {
	rs := &runSet{}
	if _, err := os.Stat(path); err == nil {
		if rs, err = readRunSet(path); err != nil {
			return err
		}
	}
	rs.Runs = append(rs.Runs, r)
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// values collects one metric of one workload over a set's runs of one kind.
func (rs *runSet) values(workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Also[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// so a spread computed here is the spread the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Verdicts of one compared row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// row is one workload x end-to-end metric comparison.
type row struct {
	base    float64 // median of the first set
	next    float64 // median of the second set
	worse   float64 // change in the worse direction, as a share of base
	spread  float64 // wider inter-quartile range of the two sets, as a share of base
	verdict string
}

// judge compares one metric's values in two run sets under its bound. The
// spread is judged first: a metric whose own run-to-run spread is wider than
// its bound cannot tell a regression from noise, and says so.
func judge(spec metricSpec, a, b []float64) row {
	q1a, base, q3a := quartiles(a)
	q1b, next, q3b := quartiles(b)
	r := row{base: base, next: next}
	if base == 0 {
		r.verdict = unresolved
		return r
	}
	r.spread = max(q3a-q1a, q3b-q1b) / base
	r.worse = (next - base) / base
	if spec.Better == higher {
		r.worse = -r.worse
	}
	switch {
	case r.spread > spec.Bound:
		r.verdict = unresolved
	case r.worse > spec.Bound:
		r.verdict = regressed
	case -r.worse > r.spread && r.worse < 0:
		r.verdict = improved
	default:
		r.verdict = unchanged
	}
	return r
}

// compareSets prints one row per workload x end-to-end metric, then the
// per-layer medians side by side, and reports whether any row regressed or
// could not be resolved.
func compareSets(out io.Writer, a, b *runSet) (bad int) {
	var workloads []string
	for _, w := range workloadSpecs {
		workloads = append(workloads, w.Name)
	}
	fmt.Fprintf(out, "%-14s %-18s %16s %16s %-5s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "new", "unit", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			va, vb := a.values(wl, spec.Name, false), b.values(wl, spec.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := judge(spec, va, vb)
			if r.verdict == regressed || r.verdict == unresolved {
				bad++
			}
			change := (r.next - r.base) / r.base * 100
			fmt.Fprintf(out, "%-14s %-18s %16.4f %16.4f %-5s %+7.2f%% %7.2f%% %6.0f%%  %s (n=%d vs %d)\n",
				wl, spec.Name, r.base, r.next, spec.Unit, change, r.spread*100, spec.Bound*100, r.verdict, len(va), len(vb))
		}
		for _, spec := range ungated {
			va, vb := a.values(wl, spec.Name, false), b.values(wl, spec.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := judge(spec, va, vb)
			fmt.Fprintf(out, "%-14s %-18s %16.4f %16.4f %-5s %+7.2f%% %7.2f%%       -  not gated (n=%d vs %d)\n",
				wl, spec.Name, r.base, r.next, spec.Unit, (r.next-r.base)/r.base*100, r.spread*100, len(va), len(vb))
		}
		bad += compareExact(out, wl, a, b)
	}
	for _, wl := range workloads {
		header := false
		for _, spec := range perLayer {
			va, vb := a.values(wl, spec.Name, true), b.values(wl, spec.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(out, "\nper-layer medians, traced %s (no bound; for locating a change)\n", wl)
				header = true
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			change := "      n/a"
			if ma != 0 {
				change = fmt.Sprintf("%+8.2f%%", (mb-ma)/ma*100)
			}
			fmt.Fprintf(out, "  %-42s %14.4f %14.4f %-6s %s of base %.4f\n", spec.Name, ma, mb, spec.Unit, change, ma)
		}
	}
	return bad
}

// compareExact checks what must repeat exactly: runs of one workload at one
// seed draw the same digest, and no run reports a failed op.
func compareExact(out io.Writer, workload string, a, b *runSet) (bad int) {
	digests := map[int64]string{}
	for _, r := range a.Runs {
		if r.Workload == workload && r.Digest != "" {
			digests[r.Seed] = r.Digest
		}
	}
	same, differ := 0, 0
	for _, r := range b.Runs {
		if want, ok := digests[r.Seed]; ok && r.Workload == workload && r.Digest != "" {
			if r.Digest == want {
				same++
			} else {
				differ++
			}
		}
	}
	failed := int64(0)
	for _, rs := range []*runSet{a, b} {
		for _, r := range rs.Runs {
			if r.Workload == workload && (r.Failed != 0 || !r.Correct) {
				failed++
			}
		}
	}
	if same+differ > 0 || failed > 0 {
		verdict := unchanged
		if differ > 0 || failed > 0 {
			verdict = regressed
			bad++
		}
		fmt.Fprintf(out, "%-14s %-18s %d seeds drew equal digests, %d differ; %d runs incorrect  %s\n",
			workload, "exact", same, differ, failed, verdict)
	}
	return bad
}
