package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"latticesim/internal/obs"
)

// obsFlags bundles the observability flags shared by the long-running
// subcommands (serve, worker): a pprof debug listener, a structured
// NDJSON sink for span and log events, and the log threshold.
type obsFlags struct {
	debugAddr *string
	logJSON   *string
	logLevel  *string
}

// addObsFlags registers the shared observability flags on fs.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		debugAddr: fs.String("debug-addr", "", "listen address for the pprof debug server (\"\" = disabled); serves /debug/pprof/*"),
		logJSON:   fs.String("log-json", "", "NDJSON sink for span events and structured logs: \"\" = disabled, \"stderr\", or a file path (opened append)"),
		logLevel:  fs.String("log-level", "info", "minimum structured log level: debug, info, warn, error"),
	}
}

// obsSinks is the resolved runtime form of obsFlags. Spans and Logger
// are nil when -log-json is unset (both are nil-safe downstream);
// Close releases the file sink, if any.
type obsSinks struct {
	Spans  *obs.SpanWriter
	Logger *obs.Logger
	closer func() error
}

// Close releases the sink file, if one was opened.
func (s *obsSinks) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer()
}

// open resolves the flags into live sinks and (when -debug-addr is
// set) starts the pprof server on its own mux — the API listener never
// exposes pprof, and nothing here touches http.DefaultServeMux.
func (f *obsFlags) open() (*obsSinks, error) {
	s := &obsSinks{}
	switch *f.logJSON {
	case "":
	case "stderr":
		s.Spans = obs.NewSpanWriter(os.Stderr)
		s.Logger = obs.NewLogger(os.Stderr, obs.ParseLevel(*f.logLevel))
	default:
		// One O_APPEND descriptor shared by both writers: each emits
		// whole lines in a single Write call, so the interleaved stream
		// stays valid NDJSON.
		file, err := os.OpenFile(*f.logJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("opening -log-json sink: %w", err)
		}
		s.Spans = obs.NewSpanWriter(file)
		s.Logger = obs.NewLogger(file, obs.ParseLevel(*f.logLevel))
		s.closer = file.Close
	}
	if *f.debugAddr != "" {
		ln, err := net.Listen("tcp", *f.debugAddr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("listening on -debug-addr: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go newHTTPServer(mux).Serve(ln)
	}
	return s, nil
}
