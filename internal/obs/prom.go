package obs

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in Prometheus text format 0.0.4:
// HELP and TYPE lines, then one sample line per series (for histograms, the
// cumulative le buckets, _sum and _count). Families and series are emitted
// in sorted order so consecutive scrapes of a quiescent registry are
// byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.gather...)
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	r.mu.Unlock()

	for _, hook := range hooks {
		hook()
	}

	sort.Strings(names)
	r.mu.Lock()
	for _, name := range names {
		if f := r.families[name]; f != nil {
			fams = append(fams, f)
		}
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		writeFamily(&b, f)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registry as /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func writeFamily(b *strings.Builder, f *family) {
	series := f.snapshot()
	if len(series) == 0 {
		return
	}
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.typ.String())
	b.WriteByte('\n')
	for _, s := range series {
		switch f.typ {
		case histogramType:
			writeHistogramSeries(b, f, s)
		default:
			writeSample(b, f.name, "", f.labels, s.labels, "", "", s.val.Load())
		}
	}
}

// writeHistogramSeries emits the cumulative le buckets, _sum and _count for
// one series. Bucket counts are loaded once into a local slice so the
// rendered cumulative sequence is monotone even while writers race.
func writeHistogramSeries(b *strings.Builder, f *family, s *series) {
	counts := make([]uint64, len(s.counts))
	for i := range s.counts {
		counts[i] = s.counts[i].Load()
	}
	var cum uint64
	for i, bound := range f.bounds {
		cum += counts[i]
		writeSample(b, f.name, "_bucket", f.labels, s.labels, "le", formatFloat(bound), float64(cum))
	}
	cum += counts[len(counts)-1]
	writeSample(b, f.name, "_bucket", f.labels, s.labels, "le", "+Inf", float64(cum))
	writeSample(b, f.name, "_sum", f.labels, s.labels, "", "", s.sum.Load())
	writeSample(b, f.name, "_count", f.labels, s.labels, "", "", float64(cum))
}

// writeSample emits one `name{labels} value` line. extraName/extraVal carry
// the histogram le label, appended after the family's own labels.
func writeSample(b *strings.Builder, name, suffix string, labelNames, labelVals []string, extraName, extraVal string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labelNames) > 0 || extraName != "" {
		b.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ln)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labelVals[i]))
			b.WriteByte('"')
		}
		if extraName != "" {
			if len(labelNames) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraName)
			b.WriteString(`="`)
			b.WriteString(extraVal)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, integral values without an exponent.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The exposition escapers, built once: a Replacer is safe for concurrent
// use, and constructing one costs far more than the escape it performs.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// DumpText returns the full exposition as a string — convenience for tests
// and debug logging.
func (r *Registry) DumpText() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}
