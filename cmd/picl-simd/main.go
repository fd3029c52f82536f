// Command picl-simd is the experiment-serving daemon: the runner's
// memoized, deterministic simulation cells behind an HTTP API, with a
// durable content-addressed result store shared across processes and a
// claim/lease protocol that coalesces duplicate computation between
// replicas (see internal/serve).
//
// Usage:
//
//	picl-simd -store /var/lib/picl                 # serve on :7097
//	picl-simd -addr 127.0.0.1:0 -store s -j 4      # ephemeral port
//	picl-simd -store s -peers http://a:7097,http://b:7097 -self http://a:7097
//	picl-simd -store s -fault-seed 7               # storm the store (soak)
//
// Endpoints: /run, /sweep, /metrics, /trace, /healthz — documented in
// README.md "Serving". SIGTERM/SIGINT drain in-flight requests and
// close the store cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"picl/internal/exp"
	"picl/internal/serve"
	"picl/internal/storage"
	"picl/internal/storage/fault"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:7097", "listen address (port 0 picks an ephemeral port, printed at boot)")
		storeDir  = flag.String("store", "", "result store directory (empty = in-memory memo only, nothing durable)")
		factor    = flag.Float64("factor", 64, "scale-down factor for every served cell (1 = full paper scale)")
		epochs    = flag.Int("epochs", 8, "default run length in epochs (requests may override per-cell)")
		jobs      = flag.Int("j", 0, "worker-pool width for sweeps (0 = NumCPU)")
		peersFlag = flag.String("peers", "", "comma-separated base URLs of every replica (rendezvous routing)")
		self      = flag.String("self", "", "this replica's base URL as it appears in -peers (default http://<addr>)")
		lease     = flag.Duration("lease", serve.DefaultLease, "claim lease: how long a dead holder blocks a cell before waiters steal it")
		faultSeed = flag.Uint64("fault-seed", 0, "wrap the result store in the deterministic fault injector with this seed (0 = off; soak testing)")
	)
	flag.Parse()

	scale, err := exp.ScaleOf(*factor, *epochs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "picl-simd:", err)
		return 2
	}
	runner := exp.NewRunner(scale)
	runner.Jobs = *jobs

	var store *serve.Store
	if *storeDir != "" {
		var wrap storage.Wrapper
		if *faultSeed != 0 {
			wrap = fault.New(*faultSeed, fault.Default())
		}
		store, err = serve.OpenStore(*storeDir, wrap)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		store.Lease = *lease
		fmt.Printf("picl-simd: store %s: %d warm results, %d blocks\n",
			*storeDir, store.Len(), store.Blocks())
	} else {
		fmt.Println("picl-simd: no -store: serving from the in-process memo only")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	baseURL := "http://" + ln.Addr().String()

	var peers *serve.Peers
	if *peersFlag != "" {
		selfURL := *self
		if selfURL == "" {
			selfURL = baseURL
		}
		peers = serve.NewPeers(selfURL, strings.Split(*peersFlag, ","))
	}

	srv := serve.NewServer(runner, store, peers)
	httpSrv := &http.Server{Handler: srv}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		close(done)
	}()

	fmt.Printf("picl-simd: listening on %s (scale %s, -j %d)\n",
		baseURL, runner.Scale.Name, *jobs)
	if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	<-done
	if store != nil {
		if deg, derr := store.Degraded(); deg {
			fmt.Printf("picl-simd: store degraded (read-only): %v\n", derr)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "picl-simd: store close: %v\n", err)
		}
	}
	fmt.Printf("picl-simd: shutdown: %d requests served\n", srv.Requests())
	return 0
}
