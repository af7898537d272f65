// Command brsmnd serves the multicast network over JSON/HTTP: stateless
// routing, batch scheduling, cost queries and tag-sequence encoding,
// plus stateful long-lived multicast groups with epoch-based rerouting
// and a plan cache, partitioned across -shards independent planner
// shards with batched admission. See packages brsmn/internal/api,
// brsmn/internal/groupd and brsmn/internal/shard for the endpoint and
// subsystem contracts.
//
// With -data-dir the daemon is durable: every group mutation is
// written to a per-shard crash-safe WAL before it is acknowledged,
// snapshots bound replay, and a restart recovers all groups (warm plan
// cache included) before serving.
//
// With -node-id and -peers the daemon is one member of a cluster: a
// consistent-hash node ring places each group on one node, any node
// forwards requests it does not own, and POST /v1/cluster/drain moves a
// node's groups (warm plans included) to the rest of the ring. See
// package brsmn/internal/cluster and README "Cluster mode".
//
// Usage:
//
//	brsmnd -addr :8642 -n 1024 -shards 4 -epoch 250ms -epoch-threshold 64 -cache 4096
//	brsmnd -addr :8642 -n 1024 -shards 4 -data-dir /var/lib/brsmnd -snapshot-every 1m -fsync-batch 8
//	brsmnd -addr :8701 -node-id a -peers 'a=http://127.0.0.1:8701,b=http://127.0.0.1:8702,c=http://127.0.0.1:8703'
//
//	curl -s localhost:8642/healthz
//	curl -s -X POST localhost:8642/v1/groups -d '{"id":"conf","source":2,"members":[3,4,7]}'
//	curl -s -X POST localhost:8642/v1/groups/conf/join -d '{"dest":9}'
//	curl -s localhost:8642/v1/epoch
//	curl -s localhost:8642/v1/shards
//	curl -s localhost:8642/metrics
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the per-shard
// epoch loops (and the faultd probers they drive) stop first, then
// in-flight requests drain through http.Server.Shutdown — background
// work never races a closing listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"path/filepath"

	"brsmn/internal/api"
	"brsmn/internal/cluster"
	"brsmn/internal/faultd"
	"brsmn/internal/groupd"
	"brsmn/internal/obs"
	"brsmn/internal/shard"
	"brsmn/internal/store"
)

// config is the parsed flag set.
type config struct {
	addr           string
	n              int
	epochPeriod    time.Duration
	epochThreshold int
	cacheSize      int
	shards         int
	batchMax       int
	queueDepth     int
	ticketCap      int
	ticketTTL      time.Duration
	shutdownGrace  time.Duration
	probeEvery     int64
	probeCount     int
	faultInject    string
	faultSeed      int64
	pprofAddr      string
	metrics        bool
	traceSample    int
	dataDir        string
	snapshotEvery  time.Duration
	fsyncBatch     int
	nodeID         string
	peers          string
	clusterPoll    time.Duration
	forwardTimeout time.Duration
	forwardRetries int
	maxHops        int
}

// parsePeers parses the -peers value: comma-separated id=baseURL pairs.
func parsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("brsmnd: -peers entry %q: want id=http://host:port", pair)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("brsmnd: -peers entry %q: URL must start with http:// or https://", pair)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("brsmnd: -peers: duplicate node ID %q", id)
		}
		peers[id] = url
	}
	if len(peers) == 0 {
		return nil, errors.New("brsmnd: -peers: no entries")
	}
	return peers, nil
}

// parseFlags parses args (without the program name) into a config.
func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("brsmnd", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8642", "listen address")
	fs.IntVar(&cfg.n, "n", 1024, "network size for long-lived groups (power of two)")
	fs.DurationVar(&cfg.epochPeriod, "epoch", 250*time.Millisecond, "epoch reroute period (0 disables the timer)")
	fs.IntVar(&cfg.epochThreshold, "epoch-threshold", 64, "pending membership changes that force an early epoch (0 disables)")
	fs.IntVar(&cfg.cacheSize, "cache", 4096, "plan cache capacity in entries, per shard")
	fs.IntVar(&cfg.shards, "shards", 1, "serving shards: independent planner fabrics groups are partitioned across")
	fs.IntVar(&cfg.batchMax, "batch-max", 32, "max admissions drained per shard worker batch")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 256, "per-shard admission queue depth (full queue sheds with 429)")
	fs.IntVar(&cfg.ticketCap, "ticket-cap", 65536, "async-admission tickets tracked at once (open + completed awaiting pickup)")
	fs.DurationVar(&cfg.ticketTTL, "ticket-ttl", 2*time.Minute, "how long a completed async ticket stays pollable")
	fs.DurationVar(&cfg.shutdownGrace, "grace", 5*time.Second, "graceful shutdown timeout")
	fs.Int64Var(&cfg.probeEvery, "probe-every", 0, "run a fault-probe round every this many epochs (0 disables periodic probing)")
	fs.IntVar(&cfg.probeCount, "probe-count", 4, "self-test assignments per probe round")
	fs.StringVar(&cfg.faultInject, "fault-inject", "", "arm faults at startup on every shard, e.g. stuck:3:1:cross,dead:5:7,flaky:2:0:parallel:0.25")
	fs.Int64Var(&cfg.faultSeed, "fault-seed", 1, "seed for intermittent fault excitation")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it off public interfaces)")
	fs.BoolVar(&cfg.metrics, "metrics", true, "serve Prometheus metrics on /metrics")
	fs.IntVar(&cfg.traceSample, "trace-sample", 0, "record a planning trace for every k-th replan per group, served on /v1/trace/{group} (0 disables)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durable state directory: per-shard WAL + snapshots, recovered on boot (empty disables durability)")
	fs.DurationVar(&cfg.snapshotEvery, "snapshot-every", time.Minute, "periodic snapshot (and WAL truncation) interval per shard; 0 snapshots only on shutdown and on POST /v1/admin/snapshot")
	fs.IntVar(&cfg.fsyncBatch, "fsync-batch", 8, "WAL appends per fsync; 1 syncs every mutation before it is acknowledged")
	fs.StringVar(&cfg.nodeID, "node-id", "", "this node's ID in a multi-node cluster (requires -peers; empty keeps single-node mode)")
	fs.StringVar(&cfg.peers, "peers", "", "cluster membership as comma-separated id=http://host:port pairs, this node included")
	fs.DurationVar(&cfg.clusterPoll, "cluster-poll", 500*time.Millisecond, "membership poll cadence in cluster mode")
	fs.DurationVar(&cfg.forwardTimeout, "forward-timeout", 5*time.Second, "per-attempt timeout when proxying a request to its owning node")
	fs.IntVar(&cfg.forwardRetries, "forward-retries", 2, "extra attempts for a proxied request that fails at the transport level")
	fs.IntVar(&cfg.maxHops, "max-hops", 2, "forwarding hop cap; a request at the cap is served locally")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("brsmnd: unexpected arguments %v", fs.Args())
	}
	if cfg.shards < 1 {
		return config{}, fmt.Errorf("brsmnd: -shards must be at least 1, got %d", cfg.shards)
	}
	if (cfg.nodeID == "") != (cfg.peers == "") {
		return config{}, errors.New("brsmnd: -node-id and -peers must be set together")
	}
	if cfg.nodeID != "" {
		peers, err := parsePeers(cfg.peers)
		if err != nil {
			return config{}, err
		}
		if _, ok := peers[cfg.nodeID]; !ok {
			return config{}, fmt.Errorf("brsmnd: -node-id %q not present in -peers", cfg.nodeID)
		}
	}
	return cfg, nil
}

// daemon bundles the subsystems behind the HTTP handler that must stop
// before the listener closes. Close is idempotent and ordered: the
// cluster node first (its membership loop and migration client must not
// poll or push into a tearing-down serving layer), then the shard set
// (epoch loops, admission queues, WAL flush).
type daemon struct {
	set  *shard.Set
	node *cluster.Node // nil outside cluster mode
}

func (d *daemon) Close() error {
	if d.node != nil {
		if err := d.node.Close(); err != nil {
			d.set.Close()
			return err
		}
	}
	return d.set.Close()
}

// newHandler builds the live HTTP handler plus the daemon behind it
// (which the caller must Close).
func newHandler(cfg config) (http.Handler, *daemon, error) {
	var reg *obs.Registry
	var tracer *obs.TraceRecorder
	if cfg.metrics {
		reg = obs.NewRegistry()
		if cfg.nodeID != "" {
			// Every series this process exports carries its node identity,
			// mirroring the per-shard shard="k" labels: one aggregator can
			// scrape N nodes without series colliding.
			reg.SetCommonLabel(fmt.Sprintf("node=%q", cfg.nodeID))
		}
		reg.GaugeFunc("brsmn_goroutines", "Live goroutines in the daemon process.",
			func() float64 { return float64(runtime.NumGoroutine()) })
	}
	if cfg.traceSample > 0 {
		tracer = obs.NewTraceRecorder(cfg.traceSample)
	}

	// One fault monitor (own fabric, own injector stream) per serving
	// shard. Startup faults arm on every shard so detection behaves the
	// same at any -shards.
	var armed []faultd.Fault
	if cfg.faultInject != "" {
		var err error
		if armed, err = faultd.ParseSpec(cfg.faultInject); err != nil {
			return nil, nil, err
		}
	}
	monitors := make([]*faultd.Monitor, cfg.shards)
	for i := range monitors {
		inj := faultd.NewInjector(cfg.faultSeed + int64(i))
		fm, err := faultd.NewMonitor(faultd.Config{
			N:            cfg.n,
			ProbeCount:   cfg.probeCount,
			ProbeEvery:   cfg.probeEvery,
			MetricsLabel: fmt.Sprintf(`shard="%d"`, i),
		}, inj)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range armed {
			if err := f.Validate(fm.N(), fm.Depth()); err != nil {
				return nil, nil, err
			}
			inj.Add(f)
		}
		// Register before the shard set starts its epoch loops: AfterEpoch
		// probing reads the monitor's instruments from those goroutines.
		if reg != nil {
			fm.RegisterMetrics(reg)
		}
		monitors[i] = fm
	}

	// Durability: one store (WAL + snapshot stream) per serving shard
	// under -data-dir. The snapshots carry the armed fault specs, so
	// believed faults survive a restart alongside the groups.
	var newStore func(int) (store.Store, error)
	var faultSpecs func(int) []string
	if cfg.dataDir != "" {
		newStore = func(i int) (store.Store, error) {
			return store.OpenFile(filepath.Join(cfg.dataDir, fmt.Sprintf("shard-%d", i)), store.FileConfig{
				FsyncBatch: cfg.fsyncBatch,
				Metrics:    store.RegisterMetrics(reg, fmt.Sprintf(`shard="%d"`, i)),
			})
		}
		faultSpecs = func(i int) []string {
			fs := monitors[i].Injector().List()
			specs := make([]string, len(fs))
			for k, f := range fs {
				specs[k] = f.String()
			}
			return specs
		}
	}

	set, err := shard.New(shard.Config{
		Shards:     cfg.shards,
		QueueDepth: cfg.queueDepth,
		BatchMax:   cfg.batchMax,
		TicketCap:  cfg.ticketCap,
		TicketTTL:  cfg.ticketTTL,
		TicketNode: cfg.nodeID,
		Group: groupd.Config{
			N:              cfg.n,
			CacheSize:      cfg.cacheSize,
			EpochPeriod:    cfg.epochPeriod,
			EpochThreshold: cfg.epochThreshold,
			Tracer:         tracer,
		},
		NewPolicy:     func(i int) groupd.FaultPolicy { return monitors[i] },
		OnQuarantine:  func(i int) { log.Printf("brsmnd: shard %d reported unhealthy, quarantined and rebalanced", i) },
		Metrics:       reg,
		NewStore:      newStore,
		SnapshotEvery: cfg.snapshotEvery,
		FaultSpecs:    faultSpecs,
	})
	if err != nil {
		return nil, nil, err
	}
	if cfg.dataDir != "" {
		for i := 0; i < set.Shards(); i++ {
			gm, err := set.Manager(i)
			if err != nil {
				set.Close()
				return nil, nil, err
			}
			inj := monitors[i].Injector()
			// Re-arm the faults that were believed when the recovered
			// state was persisted, skipping ones the -fault-inject flag
			// already armed.
			already := make(map[string]bool)
			for _, f := range inj.List() {
				already[f.String()] = true
			}
			for _, spec := range gm.RecoveredFaults() {
				if already[spec] {
					continue
				}
				fs, err := faultd.ParseSpec(spec)
				if err != nil {
					log.Printf("brsmnd: shard %d: dropping recovered fault %q: %v", i, spec, err)
					continue
				}
				for _, f := range fs {
					if err := f.Validate(monitors[i].N(), monitors[i].Depth()); err != nil {
						log.Printf("brsmnd: shard %d: dropping recovered fault %q: %v", i, spec, err)
						continue
					}
					inj.Add(f)
					already[f.String()] = true
				}
			}
			// Journal runtime fault mutations (POST/DELETE /v1/faults)
			// into this shard's WAL. Installed after re-arm so recovery
			// itself is not re-journaled.
			inj.SetJournal(
				func(f faultd.Fault) { gm.JournalFault(f.String()) },
				gm.JournalFaultClear,
			)
			if rs := gm.Recovery(); rs.SnapshotLoaded || rs.Records > 0 || rs.Groups > 0 {
				log.Printf("brsmnd: shard %d recovered %d groups, %d warm plans, %d log records (snapshot=%v) in %v",
					i, rs.Groups, rs.Plans, rs.Records, rs.SnapshotLoaded, rs.Duration)
			}
		}
	}
	var opts []api.Option
	if reg != nil {
		opts = append(opts, api.WithMetrics(reg))
	}
	if tracer != nil {
		opts = append(opts, api.WithTracer(tracer))
	}
	d := &daemon{set: set}
	if cfg.nodeID != "" {
		// Readiness: in cluster mode a node is ready once its first
		// membership poll completes and while it is not draining. The
		// closure is installed before the node exists; d.node is written
		// once below, before any request can reach the handler.
		opts = append(opts, api.WithReadiness(func() error {
			if d.node == nil {
				return nil
			}
			return d.node.Ready()
		}))
	}
	apiHandler := api.NewServer(set, monitors, opts...)
	if cfg.nodeID == "" {
		return apiHandler, d, nil
	}
	peers, err := parsePeers(cfg.peers)
	if err != nil {
		set.Close()
		return nil, nil, err
	}
	node, err := cluster.New(cluster.Config{
		Self:           cfg.nodeID,
		Peers:          peers,
		Local:          set,
		Handler:        apiHandler,
		PollEvery:      cfg.clusterPoll,
		ForwardTimeout: cfg.forwardTimeout,
		ForwardRetries: cfg.forwardRetries,
		MaxHops:        cfg.maxHops,
		Metrics:        reg,
		Logf:           log.Printf,
	})
	if err != nil {
		set.Close()
		return nil, nil, err
	}
	d.node = node
	return node, d, nil
}

// run serves until ctx is cancelled (the signal path) or the listener
// fails, then drains in-flight requests and the epoch loops.
func run(ctx context.Context, out io.Writer, cfg config) error {
	handler, d, err := newHandler(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	// The profiling endpoints live on their own mux and listener so the
	// serving address never exposes them; see README "Profiling".
	if cfg.pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: cfg.pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		defer psrv.Close()
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("brsmnd: pprof listener: %v", err)
			}
		}()
		fmt.Fprintf(out, "brsmnd: pprof on %s/debug/pprof/\n", cfg.pprofAddr)
	}
	fmt.Fprintf(out, "brsmnd: serving a %d-port BRSMN on %s (%d shards, epoch %v, threshold %d, cache %d)\n",
		cfg.n, cfg.addr, cfg.shards, cfg.epochPeriod, cfg.epochThreshold, cfg.cacheSize)
	if cfg.nodeID != "" {
		fmt.Fprintf(out, "brsmnd: cluster node %s (%s)\n", cfg.nodeID, cfg.peers)
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(out, "brsmnd: signal received, draining")
		// Shutdown ordering: the cluster node first (membership polls and
		// migration pushes stop), then the admission queues and epoch
		// tickers (and the faultd probers they drive via AfterEpoch), and
		// only then the listener: background replans and forwarded
		// requests must not keep running into a server that is tearing
		// down. With -data-dir, Close also flushes and fsyncs the WALs and
		// writes the final per-shard snapshots, after the epoch loops have
		// stopped and before the process exits.
		if err := d.Close(); err != nil {
			return err
		}
		if cfg.dataDir != "" {
			fmt.Fprintln(out, "brsmnd: state snapshotted to disk")
		}
		sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("brsmnd: shutdown: %w", err)
		}
		fmt.Fprintln(out, "brsmnd: bye")
		return nil
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, cfg); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
