package span

import (
	"net/http"
	"strings"
)

// Header is the W3C Trace Context propagation header name.
const Header = "traceparent"

// Traceparent encodes the context as a W3C traceparent header value:
// 00-<trace-id>-<span-id>-<flags>, flags 01 when sampled. Empty for an
// invalid context.
func (c Context) Traceparent() string {
	if !c.Valid() {
		return ""
	}
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	return "00-" + c.TraceID + "-" + c.SpanID + "-" + flags
}

// ParseTraceparent decodes a W3C traceparent value. Unknown versions are
// accepted if the version-00 prefix fields parse (per spec, forward
// compatibility); malformed values return ok=false.
func ParseTraceparent(v string) (Context, bool) {
	v = strings.TrimSpace(v)
	// version(2) - trace(32) - span(16) - flags(2) = 55 bytes minimum.
	if len(v) < 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return Context{}, false
	}
	version, tid, sid, flags := v[0:2], v[3:35], v[36:52], v[53:55]
	if !isHex(version) || version == "ff" {
		return Context{}, false
	}
	if version == "00" && len(v) != 55 {
		return Context{}, false
	}
	if len(v) > 55 && v[55] != '-' {
		return Context{}, false
	}
	if !isHex(tid) || !isHex(sid) || !isHex(flags) {
		return Context{}, false
	}
	c := Context{TraceID: tid, SpanID: sid, Sampled: flags[1]&1 == 1}
	if !c.Valid() {
		return Context{}, false
	}
	return c, true
}

// FromRequest extracts the trace context from an incoming request's
// traceparent header, if present and well-formed.
func FromRequest(r *http.Request) (Context, bool) {
	return ParseTraceparent(r.Header.Get(Header))
}
