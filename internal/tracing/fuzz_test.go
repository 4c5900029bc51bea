package tracing

import "testing"

// FuzzParseTraceparent checks the header parser never panics, and that
// anything it accepts carries non-zero ids, read from the header's own
// trace-id and parent-id fields, that FormatTraceparent renders back
// into a header parsing to the same ids.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra")
	f.Add("ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-00000000000000000000000000000000-b7ad6b7169203331-01")
	f.Add("00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		trace, span, ok := ParseTraceparent(h)
		if !ok {
			if !trace.IsZero() || !span.IsZero() {
				t.Fatalf("rejected %q but returned ids %v %v", h, trace, span)
			}
			return
		}
		if trace.IsZero() || span.IsZero() {
			t.Fatalf("accepted %q with a zero id", h)
		}
		if trace.String() != h[3:35] || span.String() != h[36:52] {
			t.Fatalf("accepted %q as ids %v %v, not its own fields", h, trace, span)
		}
		gotT, gotS, ok := ParseTraceparent(FormatTraceparent(trace, span))
		if !ok || gotT != trace || gotS != span {
			t.Fatalf("format/parse round trip of %q lost ids: %v %v %v", h, gotT, gotS, ok)
		}
	})
}
