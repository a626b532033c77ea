package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerSetsHeaderTimeout: every listener the command opens
// (serve, the worker's metrics endpoint, the pprof endpoint) is built by
// newHTTPServer, so the header timeout must be set there.
func TestNewHTTPServerSetsHeaderTimeout(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer(h)
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", hs.ReadHeaderTimeout)
	}
	if hs.Handler != h {
		t.Fatal("server does not serve the given handler")
	}
}
