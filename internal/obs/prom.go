package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): sorted by name, with # HELP and
// # TYPE headers, cumulative le-labeled buckets plus _sum/_count for
// histograms, and one line per label value for families.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.sorted() {
		if err := writeMetric(w, m); err != nil {
			return err
		}
	}
	return nil
}

// TextSnapshot renders the registry to a string — the payload served on
// the gateway's /metrics and returned by the OpMetrics protocol op.
func (r *Registry) TextSnapshot() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

func writeMetric(w io.Writer, m metric) error {
	switch v := m.(type) {
	case *Counter:
		return writeSimple(w, v.name, v.help, "counter", float64(v.Value()))
	case *gaugeFunc:
		return writeSimple(w, v.name, v.help, "gauge", float64(v.fn()))
	case *Histogram:
		if err := writeHeader(w, v.name, v.help, "histogram"); err != nil {
			return err
		}
		return writeHistogram(w, v.name, "", "", v.Snapshot())
	case *HistogramVec:
		if err := writeHeader(w, v.name, v.help, "histogram"); err != nil {
			return err
		}
		for _, lv := range v.labelValues() {
			if err := writeHistogram(w, v.name, v.label, lv, v.With(lv).Snapshot()); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("obs: unknown metric type %T", m)
	}
}

func writeHeader(w io.Writer, name, help, kind string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
}

func writeSimple(w io.Writer, name, help, kind string, val float64) error {
	if err := writeHeader(w, name, help, kind); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(val))
	return err
}

// writeHistogram emits the cumulative le-bucket series for one
// histogram child. Empty trailing buckets are elided (every elided
// cumulative value equals _count, which the +Inf bucket carries), so a
// fresh histogram is three lines, not sixty-eight.
func writeHistogram(w io.Writer, name, label, lv string, s HistSnapshot) error {
	pre, sel := "", "" // label text inside bucket braces / full selector
	if label != "" {
		pre = fmt.Sprintf("%s=%q,", label, lv)
		sel = fmt.Sprintf("{%s=%q}", label, lv)
	}
	top := 0
	for i, b := range s.Buckets {
		if b != 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top && s.Count > 0; i++ {
		cum += s.Buckets[i]
		bound := float64(bucketBound(i)) * s.scaleOrOne()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, pre, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, pre, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, sel, formatFloat(float64(s.Sum)*s.scaleOrOne())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, sel, s.Count)
	return err
}

// formatFloat renders values the way Prometheus clients expect:
// integers without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeHelp escapes backslashes and newlines per the exposition spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
