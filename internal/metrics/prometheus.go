package metrics

import (
	"bufio"
	"io"
	"strconv"
)

// ContentType is the Content-Type an HTTP handler should set when
// serving WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): `# HELP` and `# TYPE`
// headers per family, one line per series, histograms expanded into
// cumulative le buckets plus _sum and _count. Output order is
// deterministic — families sorted by name, series by label signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	emit := func(name, sig string, v float64) { writeSample(bw, name, sig, v) }
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range f.series {
			f.samples(s, emit)
		}
	}
	return bw.Flush()
}

func writeSample(bw *bufio.Writer, name, sig string, v float64) {
	bw.WriteString(name)
	bw.WriteString(sig)
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

// formatFloat renders a sample value (or an le bound) the way
// Prometheus clients do: shortest round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes newlines and backslashes in help text, per the
// exposition format.
func escapeHelp(h string) string {
	out := make([]byte, 0, len(h))
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, h[i])
		}
	}
	return string(out)
}
