// Command benchserver is the system under test of the repo benchmark: the
// model server of cmd/intellitag-server assembled from a prepared benchmark
// directory instead of a training run, in its shipped serving configuration
// (one replica, serving.DefaultRetrievalConfig, telemetry on, matcher off,
// snapshot source armed for POST /admin/swap). The driver (cmd/bench) starts
// it as a separate process with its own GOMAXPROCS.
//
// Besides the serving API it mounts one benchmark-only endpoint,
// GET /bench/runtime, which reports the process's CPU time, allocation and
// GC counters and peak RSS so the driver can take per-phase deltas.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"intellitag/benchmark/prep"
	"intellitag/benchmark/sysstat"
	"intellitag/internal/obs"
	"intellitag/internal/serving"
	"intellitag/internal/store"
)

func main() {
	work := flag.String("work", "", "benchmark work directory holding the prepared world")
	world := flag.String("world", "bench", "which prepared world to serve: bench, small or untrained")
	procs := flag.Int("procs", 1, "GOMAXPROCS and scorer-pool width")
	flag.Parse()
	runtime.GOMAXPROCS(*procs)

	cfg, err := prep.Named(*world)
	if err != nil {
		log.Fatalf("benchserver: %v", err)
	}
	p, err := prep.Open(*work, cfg)
	if err != nil {
		log.Fatalf("benchserver: %v (run the bench driver first: it prepares the world)", err)
	}
	catalog, index := serving.BuildCatalog(p.World, p.Train)
	load := p.Loader(catalog, index)
	bundle, err := load(p.Record.V1)
	if err != nil {
		log.Fatalf("benchserver: load %s: %v", p.Record.V1, err)
	}
	rs := serving.NewReplicaSet(bundle, 1, *procs, store.NewLog(), nil)
	rs.SetRetrieval(serving.DefaultRetrievalConfig())
	server := serving.NewServer(serving.NewReplicatedABRouter(rs))
	server.EnableTelemetry(obs.NewRegistry(), obs.NewTracer(64, 256))
	server.SetSnapshotSource(p.Store, load)

	mux := http.NewServeMux()
	mux.Handle("/", server)
	mux.HandleFunc("GET /bench/runtime", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(sysstat.Read()); err != nil {
			log.Printf("benchserver: /bench/runtime: %v", err)
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("benchserver: %v", err)
	}
	// The driver reads the port from this line.
	fmt.Printf("listening %s\n", ln.Addr())

	srv := &http.Server{Handler: mux}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	//lint:ignore nakedgo the accept loop ends when main closes the server below and is waited for through done
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-stop:
		_ = srv.Close() // in-flight benchmark traffic has already stopped
		<-done
	case err := <-done:
		log.Fatalf("benchserver: %v", err)
	}
}
