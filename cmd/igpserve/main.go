// Command igpserve runs the incremental-graph-partitioning service: a
// long-lived HTTP server multiplexing warm engine sessions with natural
// batching, lock-free snapshot reads and admission control (see
// internal/serve). An edit that finds its session idle is repartitioned
// at once; edits that arrive while a repartition runs share the next one.
//
// Usage:
//
//	igpserve -addr :8080                       # serve until SIGINT/SIGTERM
//	igpserve -batch 64 -refine                 # cap a batch at 64 requests, refine the cut
//	igpserve -smoke 3s                         # self-check: boot on a random
//	                                           # port, drive loadgen against
//	                                           # it, exit non-zero on failures
//
// Endpoints:
//
//	POST   /graphs                  create a session (mesh_n/seed or vertices/edges, p)
//	POST   /graphs/{id}/edits       submit edits; what queues behind a running repartition shares the next
//	GET    /graphs/{id}/assignment  read the published assignment snapshot (encoded once per version)
//	DELETE /graphs/{id}             evict the session
//	GET    /metrics                 server-wide counters + latency quantiles
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
	"strings"
	"syscall"
	"time"

	igp "repro"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	batch := flag.Int("batch", 0, "max requests coalesced into one repartition (0 = default 32)")
	queue := flag.Int("queue", 0, "per-session queue depth (0 = default 64)")
	inflight := flag.Int("inflight", 0, "server-wide in-flight request cap (0 = default 1024)")
	idle := flag.Duration("idle", 0, "evict sessions idle this long (0 = never)")
	solver := flag.String("solver", "", "LP solver for the engines: "+strings.Join(igp.SolverNames(), "|")+" (empty = default)")
	refine := flag.Bool("refine", false, "enable LP refinement (IGPR) in the engines")
	smoke := flag.Duration("smoke", 0, "self-check mode: boot on 127.0.0.1:0, run loadgen this long, exit")
	flag.Parse()

	var engOpts []igp.Option
	if *solver != "" {
		engOpts = append(engOpts, igp.WithSolver(*solver))
	}
	if *refine {
		engOpts = append(engOpts, igp.WithRefine())
	}
	cfg := serve.Config{
		BatchSize:     *batch,
		QueueDepth:    *queue,
		MaxInFlight:   *inflight,
		IdleTimeout:   *idle,
		EngineOptions: engOpts,
	}

	if *smoke > 0 {
		os.Exit(runSmoke(cfg, *smoke))
	}

	srv := serve.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Graceful shutdown: stop accepting, let in-flight requests drain,
	// then close every session (releasing the warm engines).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "igpserve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "igpserve: %v\n", err)
		srv.Close()
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "igpserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "igpserve: shutdown: %v\n", err)
	}
	srv.Close()
}

// runSmoke is the CI self-check: boot the full HTTP stack on an
// ephemeral port, drive the load generator against it for d, then
// require a clean shutdown with zero failed requests (typed sheds are
// allowed — they are the admission controller working).
func runSmoke(cfg serve.Config, d time.Duration) int {
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "igpserve: smoke listen: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "igpserve: smoke run on %s for %v\n", base, d)

	res, lerr := loadgen.Run(loadgen.Options{
		BaseURL:  base,
		Sessions: 2,
		Workers:  4,
		Duration: d,
		MeshN:    300,
		P:        4,
		Seed:     1994,
	})

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := httpSrv.Shutdown(shutCtx)
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "igpserve: smoke serve: %v\n", err)
		return 1
	}

	if lerr != nil {
		fmt.Fprintf(os.Stderr, "igpserve: smoke loadgen: %v\n", lerr)
		return 1
	}
	fmt.Printf("smoke: %d requests, %d served, %d shed, %d failed, p50 %v, p99 %v, %.0f req/s\n",
		res.Requests, res.Served, res.Shed, res.Failed, res.P50, res.P99, res.Throughput)
	switch {
	case shutErr != nil:
		fmt.Fprintf(os.Stderr, "igpserve: smoke shutdown: %v\n", shutErr)
		return 1
	case res.Failed > 0:
		fmt.Fprintf(os.Stderr, "igpserve: smoke: %d failed requests\n", res.Failed)
		return 1
	case res.Served == 0:
		fmt.Fprintln(os.Stderr, "igpserve: smoke: no requests served")
		return 1
	}
	fmt.Fprintln(os.Stderr, "igpserve: smoke ok")
	return 0
}
