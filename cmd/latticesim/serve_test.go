package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerSetsHeaderTimeout: every listener the command opens
// (serve, the worker's metrics endpoint, the pprof endpoint) is built by
// newHTTPServer, so the header and idle timeouts must be set there.
func TestNewHTTPServerSetsHeaderTimeout(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer(h)
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want a positive bound on idle keep-alives", hs.IdleTimeout)
	}
	// Watch streams must outlive any whole-request bound.
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout/WriteTimeout = %v/%v, want both unset", hs.ReadTimeout, hs.WriteTimeout)
	}
	if hs.Handler != h {
		t.Fatal("server does not serve the given handler")
	}
}
