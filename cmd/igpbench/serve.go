package main

import (
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// serveLevel is one concurrency point of the serve latency table.
type serveLevel struct {
	sessions int
	workers  int
	requests int // per worker
}

// printServe measures the service stack end to end: for each
// concurrency level it boots a fresh in-process igpserve (real HTTP via
// an ephemeral listener), drives the load generator through the
// batching/admission path, and reports latency quantiles, throughput,
// and the coalescing ratio (served requests per batch repartition). The
// service batches only what queues while a repartition runs, so the
// ratio stays near 1 until the writers outpace the engine.
func printServe(seed int64) error {
	levels := []serveLevel{
		{sessions: 1, workers: 1, requests: 80},
		{sessions: 2, workers: 4, requests: 40},
		{sessions: 4, workers: 16, requests: 20},
	}
	fmt.Println("Serve latency under concurrent sessions (mesh 400, P=8, 6 edits/request)")
	fmt.Printf("  %8s %8s %8s %8s %6s %9s %9s %9s %8s\n",
		"Sessions", "Workers", "Served", "Reparts", "Coal", "p50", "p90", "p99", "req/s")
	for _, lv := range levels {
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(srv.Handler())
		res, err := loadgen.Run(loadgen.Options{
			BaseURL:         ts.URL,
			Sessions:        lv.sessions,
			Workers:         lv.workers,
			Requests:        lv.requests,
			EditsPerRequest: 6,
			MeshN:           400,
			P:               8,
			Seed:            seed,
		})
		if err != nil {
			ts.Close()
			srv.Close()
			return err
		}
		m, merr := loadgen.Metrics(ts.URL)
		ts.Close()
		srv.Close()
		if merr != nil {
			return merr
		}
		if res.Failed > 0 {
			return fmt.Errorf("serve table: %d failed requests at %d sessions / %d workers",
				res.Failed, lv.sessions, lv.workers)
		}
		reparts, _ := m["repartitions_run"].Int64()
		graphs, _ := m["graphs_created"].Int64()
		// Coalescing ratio: served requests per batch repartition
		// (priming calls excluded).
		batches := reparts - graphs
		if batches < 1 {
			batches = 1
		}
		ratio := float64(res.Served) / float64(batches)
		fmt.Printf("  %8d %8d %8d %8d %6.2f %9s %9s %9s %8.0f\n",
			lv.sessions, lv.workers, res.Served, reparts, ratio,
			res.P50.Round(time.Microsecond), res.P90.Round(time.Microsecond),
			res.P99.Round(time.Microsecond), res.Throughput)
	}
	fmt.Println()
	return nil
}
