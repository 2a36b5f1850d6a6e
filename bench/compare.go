package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of -compare. A is the base (the parent commit), B the change.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // per-layer metrics carry no bound
)

// loadRecords reads result records (the files -out writes) from paths;
// a file may hold several records back to back.
func loadRecords(paths []string) ([]*record, error) {
	var recs []*record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(f)
		for {
			var r record
			if err := dec.Decode(&r); err == io.EOF {
				break
			} else if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if r.Workload == "" || len(r.Metrics) == 0 {
				f.Close()
				return nil, fmt.Errorf("%s: not a result record (write them with -out)", p)
			}
			recs = append(recs, &r)
		}
		f.Close()
	}
	return recs, nil
}

// judge compares one metric's runs on the two sides. worsening is the
// relative change of the median in the bad direction, with A's median
// as the base. The verdict is unresolved when the run-to-run spread on
// either side is wider than the bound and the two sides' runs overlap:
// the data cannot tell a regression of that size from noise.
func judge(d metricDecl, a, b []float64) (verdict string, worsening float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worsening = (mb - ma) / ma
	}
	if d.Better == higher {
		worsening = -worsening
	}
	if d.Bound == 0 {
		return verdictInfo, worsening
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	overlap := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
	if max(spread(a), spread(b)) > d.Bound && overlap {
		return verdictUnresolved, worsening
	}
	// A gain must clear the base's own spread; one run has none, so it
	// must clear the bound.
	gain := spread(a)
	if len(a) < 2 {
		gain = d.Bound
	}
	switch {
	case worsening > d.Bound:
		return verdictWorse, worsening
	case -worsening > gain:
		return verdictBetter, worsening
	}
	return verdictSame, worsening
}

// compareFiles prints, per workload and metric, both medians, the
// ratio with its base, the bound and the verdict. It returns 1 when
// any metric is worse or a workload's failed share rose, else 0.
func compareFiles(w io.Writer, aPaths, bPaths []string) int {
	a, err := loadRecords(aPaths)
	if err == nil {
		var b []*record
		if b, err = loadRecords(bPaths); err == nil {
			return compareRecords(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareRecords(w io.Writer, a, b []*record) int {
	type side struct {
		values            map[string][]float64
		attempted, failed int
		runs              int
	}
	group := func(recs []*record) map[string]*side {
		out := map[string]*side{}
		for _, r := range recs {
			s := out[r.Workload]
			if s == nil {
				s = &side{values: map[string][]float64{}}
				out[r.Workload] = s
			}
			s.runs++
			s.attempted += r.Attempted
			s.failed += r.Failed
			for name, m := range r.Metrics {
				s.values[name] = append(s.values[name], m.Value)
			}
		}
		return out
	}
	ga, gb := group(a), group(b)
	decls := map[string]metricDecl{}
	var order []string
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		decls[d.Name] = d
		order = append(order, d.Name)
	}
	code := 0
	var names []string
	for name := range ga {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		sa, sb := ga[wl], gb[wl]
		if sb == nil {
			fmt.Fprintf(w, "%s: only on side A\n", wl)
			continue
		}
		fmt.Fprintf(w, "%s (A: %d runs, B: %d runs)\n", wl, sa.runs, sb.runs)
		fmt.Fprintf(w, "  %-44s %14s %14s %9s %6s  %s\n", "metric", "A median", "B median", "B÷A", "bound", "verdict")
		for _, name := range order {
			va, vb := sa.values[name], sb.values[name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			d := decls[name]
			verdict, _ := judge(d, va, vb)
			ma, mb := median(va), median(vb)
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.3f", mb/ma)
			}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			fmt.Fprintf(w, "  %-44s %14.4f %14.4f %9s %6s  %s (%s is better)\n", name, ma, mb, ratio, bound, verdict, d.Better)
			if verdict == verdictWorse {
				code = 1
			}
		}
		fa := float64(sa.failed) / float64(max(sa.attempted, 1))
		fb := float64(sb.failed) / float64(max(sb.attempted, 1))
		fmt.Fprintf(w, "  failed share: A %d/%d, B %d/%d\n", sa.failed, sa.attempted, sb.failed, sb.attempted)
		if fb > fa {
			fmt.Fprintf(w, "  B fails a higher share of its ops than A\n")
			code = 1
		}
	}
	for wl := range gb {
		if ga[wl] == nil {
			fmt.Fprintf(w, "%s: only on side B\n", wl)
		}
	}
	return code
}
