// Command dknnd runs a deployed DKNN query server: a TCP daemon that
// moving objects and query clients (cmd/dknn-agent) connect to. It runs
// either standalone (the default) or as one node of a multi-process
// federation.
//
// Usage:
//
//	dknnd [-addr :7707] [-world 10000] [-grid 64] [-tick 1s]
//	      [-vobj 30] [-vqry 30] [-horizon 20] [-slack 10] [-theta 0]
//	      [-shards 4] [-reap 0] [-http :8080] [-trace]
//
// Federation: start one dknnd per node, each with its node id, the full
// list of peer (inter-node) addresses, and the full list of client
// addresses — both indexed by node id and identical on every node. The
// world is split into len(peers) column strips; each node serves the
// clients inside its strip and relays boundary-spanning traffic to the
// owning peer over the link. The world, grid, tick, speed and protocol
// flags, -reap, -trace and -http apply in both modes; -addr and -shards
// to a standalone server only. A node runs one engine, so -shards above 1
// with -peers is an error.
//
//	dknnd -node 0 -peers  127.0.0.1:7801,127.0.0.1:7802 \
//	              -client-addrs 127.0.0.1:7707,127.0.0.1:7708 \
//	              [-heartbeat 500ms] [-balance] ...
//
// -reap evicts client connections silent for that long (0, the default,
// keeps them: an object with no monitors is legitimately silent).
//
// -balance enables adaptive partitioning: node 0 observes every node's
// load (the uplinks its server handled, reported over the link), and when
// the federation skews it moves one boundary grid column at a time between
// adjacent strips, migrating the affected monitors live. All nodes of a
// federation must agree on the -balance flags. The current partition map
// version and this node's owned-column count appear in /stats and under
// the "dknnd_partition" expvar key.
//
// The daemon prints its listen address and, once a second, a one-line
// status with connected clients and registered queries. Stop with
// SIGINT/SIGTERM.
//
// -trace arms an in-memory flight recorder on the protocol engine. With
// -http also set, the per-event-type census is exported through the
// standard expvar surface at /debug/vars (key "dknnd_trace", alongside
// "dknnd_stats"), so any expvar-speaking scraper can watch probe,
// install, answer, and resync rates live; the recorder's bounded tail of
// recent events stays available for post-mortems. In federation mode
// -http additionally serves /healthz: 200 once every peer link session
// is up, 503 while any is down.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmknn"
	"dmknn/internal/obs"
)

// daemon is the common surface of the standalone and federation servers.
type daemon interface {
	Addr() string
	ClientCount() int
	QueryCount() int
	Close() error
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7707", "listen address (standalone mode)")
	world := flag.Float64("world", 10000, "world side length in meters (square, origin at 0,0)")
	gridN := flag.Int("grid", 64, "broadcast grid cells per side")
	tick := flag.Duration("tick", time.Second, "evaluation interval")
	vobj := flag.Float64("vobj", 30, "max object speed, m/s")
	vqry := flag.Float64("vqry", 30, "max query speed, m/s: caps the advertised query speed the slack assumes")
	// The flag keeps a fixed default rather than the derived horizon:
	// nettcp writes every broadcast to every connection, so the extra
	// installs of short derived horizons cost each client a frame.
	horizon := flag.Int("horizon", 20, "monitor refresh horizon, ticks (0 = derive each query's horizon from its answer radius)")
	slack := flag.Int("slack", 10, "answer buffer size m")
	theta := flag.Float64("theta", 0, "in-boundary movement threshold, meters")
	shards := flag.Int("shards", 1, "parallel query shards (>1 enables interior sharding; standalone mode, an error with -peers)")
	quiet := flag.Bool("quiet", false, "suppress the periodic status line")
	httpAddr := flag.String("http", "", "serve operational stats as JSON on this address (e.g. :8080)")
	trace := flag.Bool("trace", false, "arm a protocol flight recorder (census at /debug/vars with -http)")
	node := flag.Int("node", -1, "federation: this process's node id")
	peers := flag.String("peers", "", "federation: comma-separated inter-node addresses of ALL nodes, indexed by node id")
	clientAddrs := flag.String("client-addrs", "", "federation: comma-separated client addresses of ALL nodes, indexed by node id")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "federation: peer keepalive cadence")
	reap := flag.Duration("reap", 0, "evict clients silent for this long (0 = off)")
	balanceOn := flag.Bool("balance", false, "federation: enable adaptive partitioning (must match on all nodes)")
	balanceInterval := flag.Int("balance-interval", 16, "federation: ticks between balance decisions")
	balanceMinGain := flag.Float64("balance-min-gain", 0.05, "federation: minimum relative imbalance improvement to move a column")
	flag.Parse()

	proto := dmknn.Protocol{
		HorizonTicks: *horizon,
		AnswerSlack:  *slack,
		ThetaInside:  *theta,
	}
	var rec *obs.Recorder
	var sink obs.Sink
	if *trace {
		rec = obs.NewRecorder(0)
		sink = rec
	}
	opts := dmknn.ServerOptions{
		World:          dmknn.Rect{MinX: 0, MinY: 0, MaxX: *world, MaxY: *world},
		GridCols:       *gridN,
		GridRows:       *gridN,
		TickInterval:   *tick,
		MaxObjectSpeed: *vobj,
		MaxQuerySpeed:  *vqry,
		Protocol:       proto,
		Shards:         *shards,
		Trace:          sink,
		IdleReap:       *reap,
	}

	var (
		srv      daemon
		stats    func() any // JSON-ready operational snapshot
		healthy  func() bool
		fedLabel string
	)
	if *peers != "" {
		peerList := strings.Split(*peers, ",")
		clientList := strings.Split(*clientAddrs, ",")
		fopts := dmknn.FederationOptions{
			ServerOptions: opts,
			Node:          *node,
			PeerAddrs:     peerList,
			ClientAddrs:   clientList,
			Heartbeat:     *heartbeat,
		}
		if *balanceOn {
			fopts.BalanceInterval = *balanceInterval
			fopts.BalanceMinGain = *balanceMinGain
		}
		ns, err := dmknn.ListenAndServeNode(fopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dknnd: %v\n", err)
			os.Exit(1)
		}
		srv = ns
		stats = func() any { return ns.Stats() }
		healthy = ns.Healthy
		fedLabel = fmt.Sprintf(" node %d/%d (link %s)", *node, len(peerList), ns.PeerAddr())
	} else {
		s, err := dmknn.ListenAndServe(*addr, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dknnd: %v\n", err)
			os.Exit(1)
		}
		srv = s
		stats = func() any { return s.Stats() }
	}
	fmt.Printf("dknnd: listening on %s%s (world %.0fm², tick %v)\n", srv.Addr(), fedLabel, *world, *tick)

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(stats()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		if healthy != nil {
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
				if healthy() {
					fmt.Fprintln(w, "ok")
					return
				}
				http.Error(w, "peer link down", http.StatusServiceUnavailable)
			})
		}
		// The standard expvar surface: process-wide vars (memstats,
		// cmdline) plus the daemon's operational counters, and — with
		// -trace — the flight recorder's per-event-type census.
		expvar.Publish("dknnd_stats", expvar.Func(stats))
		if rec != nil {
			expvar.Publish("dknnd_trace", expvar.Func(func() any { return rec.Counts() }))
		}
		// Federation nodes also expose the live partition map state: the
		// version, this node's column ownership, and the balancer's
		// decision/move counters — the fast way to watch adaptive
		// partitioning converge across a cluster.
		if ns, ok := srv.(*dmknn.NodeServer); ok {
			expvar.Publish("dknnd_partition", expvar.Func(func() any {
				st := ns.Stats()
				return map[string]any{
					"version":           st.PartitionVersion,
					"owned_columns":     st.OwnedColumns,
					"column_moves":      st.ColumnMoves,
					"balance_decisions": st.BalanceDecisions,
					"balance_moves":     st.BalanceMoves,
					"balance_splits":    st.BalanceSplits,
					"balance_merges":    st.BalanceMerges,
				}
			}))
		}
		mux.Handle("/debug/vars", expvar.Handler())
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "dknnd: http: %v\n", err)
			}
		}()
		fmt.Printf("dknnd: stats at http://%s/stats, expvar at /debug/vars\n", *httpAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	status := time.NewTicker(time.Second)
	defer status.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("\ndknnd: shutting down")
			if err := srv.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "dknnd: close: %v\n", err)
				os.Exit(1)
			}
			return
		case <-status.C:
			if !*quiet {
				if ns, ok := srv.(*dmknn.NodeServer); ok {
					fmt.Printf("dknnd: node=%d clients=%d queries=%d peers_up=%d\n",
						ns.Node(), ns.ClientCount(), ns.QueryCount(), ns.PeersUp())
				} else {
					fmt.Printf("dknnd: clients=%d queries=%d\n", srv.ClientCount(), srv.QueryCount())
				}
			}
		}
	}
}
