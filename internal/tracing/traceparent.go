package tracing

import "encoding/hex"

// W3C trace-context `traceparent` support (https://www.w3.org/TR/trace-context/):
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	   00   -  32 hex    -   16 hex    -   2 hex
//
// ParseTraceparent is forgiving in exactly the ways the spec demands
// and no others: future versions (anything but "ff") are accepted as
// long as the four core fields parse and, for versions past 00, any
// extra content is separated by a dash; lowercase hex is required;
// all-zero ids are invalid.

// ParseTraceparent parses a traceparent header into the remote trace
// and parent-span ids. ok is false for anything malformed — callers
// then start a fresh trace instead of trusting the header.
func ParseTraceparent(h string) (trace TraceID, span SpanID, ok bool) {
	// version(2) - trace(32) - parent(16) - flags(2) = 55 bytes minimum.
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return trace, span, false
	}
	version := h[:2]
	if !isLowerHex(version) || version == "ff" {
		return trace, span, false
	}
	// Version 00 is exactly 55 bytes; future versions may append
	// "-extra" but never glue content straight onto the flags.
	if len(h) > 55 && (version == "00" || h[55] != '-') {
		return trace, span, false
	}
	if !isLowerHex(h[53:55]) {
		return trace, span, false
	}
	if !decodeLowerHex(trace[:], h[3:35]) || !decodeLowerHex(span[:], h[36:52]) ||
		trace.IsZero() || span.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return trace, span, true
}

// decodeLowerHex fills dst from s, which must be exactly 2*len(dst)
// lowercase hex characters — the only form trace-context ids take.
func decodeLowerHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) || !isLowerHex(s) {
		return false
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// FormatTraceparent renders a version-00 traceparent header for the
// given ids with the sampled flag set.
func FormatTraceparent(trace TraceID, span SpanID) string {
	return "00-" + trace.String() + "-" + span.String() + "-01"
}

// isLowerHex reports whether s is entirely lowercase hex digits — the
// spec forbids uppercase in traceparent.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return len(s) > 0
}
