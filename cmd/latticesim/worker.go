package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"latticesim/internal/obs"
	"latticesim/internal/worker"
)

// runWorker implements the `latticesim worker` subcommand: join a
// coordinator's fleet as a pull-based execution node and run until
// SIGINT/SIGTERM.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: latticesim worker [flags]

Joins a running `+"`latticesim serve`"+` coordinator as a worker node: the
node registers itself, pulls leased work units (sweep points, traces,
campaign batches) over HTTP, executes them with the same deterministic
executors the coordinator's own pool uses, and reports results back.
Heartbeats renew each unit's lease; a node that dies mid-unit simply
stops heartbeating and the coordinator re-leases the work — results are
byte-identical however many nodes run or fail (API.md, DESIGN.md §15).

With -metrics-addr the node serves its own GET /metrics (Prometheus
text: unit outcomes, heartbeats, unit wall time, Monte Carlo shard and
predecoder series) and GET /healthz. With -log-json each executed unit
emits start/end span events stamped with the job's trace ID from the
lease grant, so one grep over coordinator+worker sinks reassembles a
campaign's full trace. -debug-addr serves pprof.

Flags:`)
		fs.PrintDefaults()
	}
	var (
		server = fs.String("server", "http://127.0.0.1:8642", "coordinator base URL")
		name   = fs.String("name", "", "self-reported node label shown in GET /v1/workers (\"\" = the host name)")
		mcw    = fs.Int("mc-workers", 0, "Monte Carlo worker-pool size per unit (0 = GOMAXPROCS; results are independent of it)")
		poll   = fs.Duration("poll", 500*time.Millisecond, "idle sleep between lease requests that found no work")
		quiet  = fs.Bool("quiet", false, "suppress operational log lines")

		metricsAddr = fs.String("metrics-addr", "", "listen address for the node's GET /metrics and /healthz (\"\" = disabled)")
		of          = addObsFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	label := *name
	if label == "" {
		if h, err := os.Hostname(); err == nil {
			label = h
		}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "latticesim worker: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	sinks, err := of.open()
	if err != nil {
		return err
	}
	defer sinks.Close()
	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("listening on -metrics-addr: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("ok\n"))
		})
		go newHTTPServer(mux).Serve(ln)
	}

	w, err := worker.New(worker.Options{
		Coordinator: *server, Name: label, MCWorkers: *mcw, Poll: *poll, Logf: logf,
		Metrics: reg, Spans: sinks.Spans, Logger: sinks.Logger,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	if !*quiet {
		st := w.Stats()
		fmt.Fprintf(os.Stderr, "latticesim worker: shutting down (leased %d, completed %d, failed %d, abandoned %d)\n",
			st.Leased, st.Completed, st.Failed, st.Abandoned)
	}
	return nil
}
