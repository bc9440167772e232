// Command starlinkd deploys Starlink bridges on the local machine
// over real sockets (loopback UDP/TCP with an in-process multicast
// registry — see internal/realnet). Legacy clients and services of the
// bridged protocols, started in the same process group via the
// examples or tests, interoperate transparently through it.
//
// The daemon is a multi-case runtime: one process hosts any number of
// merged automata at once behind shared entry listeners, and inbound
// payloads are classified to the right case by the candidate entry
// parsers, which read each payload's message-selection rule field
// without parsing it (internal/provision). It is
// built entirely on the public starlink API — the same Framework,
// Deployment, Observer and Collector surface any embedding program
// uses.
//
// Usage:
//
//	starlinkd [-case all | name,name,...] [-host 127.0.0.1] [-v]
//	          [-models dir] [-models-poll 2s]
//	          [-max-sessions 4096] [-stats-interval 30s]
//	          [-drain-timeout 10s] [-pprof addr]
//	          [-metrics-addr addr] [-demo-traffic n]
//
// -case selects the cases to host: "all" (the default) hosts every
// loaded case, a comma-separated list hosts exactly those. -models
// names a directory of MDL / automaton / merged-automaton XML files
// loaded on top of the builtins at startup and hot-reloaded while the
// daemon runs — polled every -models-poll, and reloaded immediately on
// SIGHUP — so dropping a new case file into the directory deploys it
// with zero restart. The daemon logs failed sessions (and, with -v,
// every session, drop and undeploy), prints the debug index page —
// every counter the Collector exposes, per case and per lane, and the
// stage quantiles — every -stats-interval and once at shutdown, and
// runs until signalled.
//
// -metrics-addr serves the observability surface on the given address:
// Prometheus text exposition on /metrics (per-case session and
// classification counters, per-stage latency histograms) and plain
// text debug pages under /debug/starlink/ (live sessions with their
// flight-recorder traces, recent failures).
//
// Each case's ingest runs at the built-in bounds: three prioritized
// lanes — control > data > telemetry — of 341 payloads each; at three
// quarters of the total the transport read loops pause and telemetry
// sheds oldest-first (drops tagged ErrOverloaded, scrapeable as
// starlink_lane_shed_total), resuming at half that.
//
// -demo-traffic runs n rounds of example traffic through the hosted
// cases over the in-process loopback network — legacy clients and
// services for every builtin case, a raw unicast SLP request for the
// hot-deployable slp-to-upnp-alt case when its models are loaded, and
// one deliberately malformed datagram (so the parse-error counters
// move). It exists for smoke tests: every scrapeable series has
// nonzero traffic behind it after one round.
//
// On SIGTERM or SIGINT the daemon drains gracefully: no new sessions
// are admitted (late initiator requests are refused and logged with
// their ErrDraining reason), live sessions run to completion, and the
// daemon exits once everything has drained or -drain-timeout has
// elapsed, whichever comes first.
//
// -pprof serves net/http/pprof on the given address (e.g.
// 127.0.0.1:6060) so a saturated ingress can be profiled live:
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"starlink"
	"starlink/internal/provision"
	"starlink/internal/registry"
)

func main() {
	caseList := flag.String("case", "all", `cases to host: "all" or a comma-separated list (see mdlc list)`)
	host := flag.String("host", "127.0.0.1", "bridge host address: a 127/8 address binds there, any other 127.0.0.1")
	verbose := flag.Bool("v", false, "log every session")
	modelsDir := flag.String("models", "", "directory of model XML files loaded over the builtins and hot-reloaded")
	modelsPoll := flag.Duration("models-poll", 2*time.Second, "how often to poll -models for changes (0 disables polling; SIGHUP still reloads)")
	maxSessions := flag.Int("max-sessions", 4096, "bound on concurrently live sessions per case")
	statsInterval := flag.Duration("stats-interval", 30*time.Second, "how often to print the /debug/starlink/ index page: every counter, per case and lane (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a graceful shutdown waits for live sessions (0 closes immediately)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for live saturation debugging")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/starlink/ on this address (e.g. 127.0.0.1:9464)")
	demoTraffic := flag.Int("demo-traffic", 0, "run this many rounds of example traffic through the hosted cases (0 disables)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "starlinkd: pprof:", err)
			}
		}()
		fmt.Printf("starlinkd: pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *maxSessions < 1 {
		fatal(fmt.Errorf("-max-sessions must be >= 1, got %d", *maxSessions))
	}
	var cases []string
	if *caseList != "all" {
		for _, c := range strings.Split(*caseList, ",") {
			if c = strings.TrimSpace(c); c != "" {
				cases = append(cases, c)
			}
		}
		if len(cases) == 0 {
			fatal(fmt.Errorf(`-case must be "all" or a non-empty case list`))
		}
	}

	reg, err := starlink.BuiltinRegistry()
	if err != nil {
		fatal(err)
	}
	// The model directory loader and hot-reload watcher live below the
	// public surface; Backend is the sanctioned escape hatch.
	ireg := reg.Backend().(*registry.Registry)
	if *modelsDir != "" {
		if res, err := registry.LoadFS(ireg, os.DirFS(*modelsDir)); err != nil {
			fatal(fmt.Errorf("-models %s: %w", *modelsDir, err))
		} else if res.Changed() {
			fmt.Printf("starlinkd: models %s: %s\n", *modelsDir, res)
		}
	}

	rt := starlink.Loopback()
	fw := starlink.NewWithRegistry(rt, reg)

	// The Collector backs the /metrics and /debug/starlink/ surface; the
	// Hooks observer logs failed sessions (and, with -v, every session).
	col := starlink.NewCollector()
	opts := []starlink.Option{
		starlink.WithMaxSessions(*maxSessions),
		starlink.WithObserver(col),
		starlink.WithObserver(starlink.Hooks{
			SessionEnd: func(s starlink.SessionStats) {
				if s.Err != nil {
					fmt.Printf("starlinkd: [%s] session from %s FAILED after %s: %v\n", s.Case, s.Origin, s.Duration, s.Err)
					if len(s.Trace) > 0 {
						fmt.Printf("starlinkd: [%s] trace: %s\n", s.Case, starlink.FormatTrace(s.Trace))
					}
					return
				}
				if *verbose {
					fmt.Printf("starlinkd: [%s] session from %s bridged in %s\n", s.Case, s.Origin, s.Duration)
				}
			},
			Deploy: func(e starlink.CaseEvent) {
				fmt.Printf("starlinkd: deployed %s (generation %d)\n", e.Case, e.Generation)
			},
			Undeploy: func(e starlink.CaseEvent) {
				if *verbose {
					fmt.Printf("starlinkd: undeployed %s\n", e.Case)
				}
			},
			Drop: func(d starlink.Drop) {
				if *verbose {
					fmt.Printf("starlinkd: [%s] dropped payload from %s: %v\n", d.Case, d.Origin, d.Reason)
				}
			},
		}),
	}
	disp, err := fw.DeployDispatcher(context.Background(), *host, cases, opts...)
	if err != nil {
		fatal(err)
	}
	defer disp.Close()
	col.Register("starlinkd", disp)

	if *metricsAddr != "" {
		srv := &http.Server{Addr: *metricsAddr, Handler: col.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "starlinkd: metrics:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("starlinkd: metrics on http://%s/metrics, debug on http://%s/debug/starlink/\n",
			*metricsAddr, *metricsAddr)
	}

	var watcher *provision.Watcher
	if *modelsDir != "" {
		watcher = provision.NewWatcher(ireg, *modelsDir, *modelsPoll, func(registry.LoadResult) {
			if err := disp.Sync(); err != nil {
				fmt.Fprintln(os.Stderr, "starlinkd: sync:", err)
			}
		}, func(format string, args ...any) {
			fmt.Printf("starlinkd: "+format+"\n", args...)
		})
		watcher.Start()
		defer watcher.Stop()
	}

	fmt.Printf("starlinkd: hosting %s on %s (max %d sessions/case); ctrl-c to stop\n",
		strings.Join(disp.Cases(), ", "), *host, *maxSessions)

	if *demoTraffic > 0 {
		go func() {
			if err := runDemo(rt, *host, *demoTraffic, disp.Cases()); err != nil {
				fmt.Fprintln(os.Stderr, "starlinkd: demo:", err)
			}
			// The marker line smoke tests wait for before scraping.
			fmt.Println("starlinkd: demo traffic complete")
		}()
	}

	// The index page every -stats-interval, and the signals: SIGHUP
	// reloads the models, SIGINT or SIGTERM ends the loop.
	var tick <-chan time.Time
	if *statsInterval > 0 {
		t := time.NewTicker(*statsInterval)
		defer t.Stop()
		tick = t.C
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for running := true; running; {
		select {
		case <-tick:
			printIndex(col)
		case s := <-sig:
			switch {
			case s != syscall.SIGHUP:
				running = false
			case watcher == nil:
				fmt.Println("starlinkd: SIGHUP ignored (no -models directory)")
			default:
				fmt.Println("starlinkd: SIGHUP: reloading models")
				if err := watcher.Reload(); err != nil {
					fmt.Fprintln(os.Stderr, "starlinkd: reload:", err)
				}
			}
		}
	}

	// Graceful drain: stop admitting new sessions, let the live ones
	// finish (bounded by -drain-timeout), then release everything.
	if live := disp.Metrics().Sessions.Live; *drainTimeout > 0 && live > 0 {
		fmt.Printf("starlinkd: draining %d live session(s) (up to %s)\n", live, *drainTimeout)
	}
	printIndex(col)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	err = disp.Shutdown(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "starlinkd: drain:", err)
	}
	// Metrics outlives Shutdown, so the final tally is the dispatcher's
	// own: it counts the cases hosted now (a case a reload replaced or
	// removed took its counts with it).
	sessions := disp.Metrics().Sessions
	fmt.Printf("starlinkd: %d sessions bridged, %d failed\n", sessions.Completed, sessions.Failed)
}

// printIndex writes the Collector's debug index page to stdout.
func printIndex(col *starlink.Collector) {
	rec := httptest.NewRecorder()
	col.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/starlink/", nil))
	os.Stdout.Write(rec.Body.Bytes())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starlinkd:", err)
	os.Exit(1)
}
