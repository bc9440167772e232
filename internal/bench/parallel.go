package bench

import (
	"fmt"
	"sync"
	"time"

	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/simnet"
)

// ParallelResult summarises a parallel-session throughput run.
type ParallelResult struct {
	// Units is the number of independent simulations driven.
	Units int
	// ClientsPerUnit is the number of concurrent bridge sessions each
	// simulation's engine hosted.
	ClientsPerUnit int
	// Workers is the goroutine count the units were spread across.
	Workers int
	// Sessions is the total number of successfully bridged sessions.
	Sessions int
	// Elapsed is the wall-clock time for the whole run.
	Elapsed time.Duration
	// PerSecond is Sessions / Elapsed.
	PerSecond float64
}

// RunParallelUnit drives one deterministic simulation in which
// `clients` concurrent SLP user agents are bridged to a Bonjour
// service through one slp-to-bonjour engine, and returns the number of
// completed bridge sessions. Each concurrent session exercises the
// engine's sharded table and per-session goroutines; each unit is an
// independent simulator, so units can run on parallel goroutines.
func RunParallelUnit(clients int, seed int64) (int, error) {
	if clients < 1 || clients > 200 {
		return 0, fmt.Errorf("bench: clients must be in 1..200, got %d", clients)
	}
	sim := simnet.New(simnet.WithSeed(seed))
	bridge, err := deployBridge(sim, "slp-to-bonjour")
	if err != nil {
		return 0, err
	}
	defer bridge.Close()
	svcNode, err := sim.NewNode("10.0.0.9")
	if err != nil {
		return 0, err
	}
	if _, err := dnssd.NewResponder(svcNode, DNSName, ServiceURL); err != nil {
		return 0, err
	}
	done := 0
	for i := 0; i < clients; i++ {
		n, err := sim.NewNode(fmt.Sprintf("10.0.1.%d", i+1))
		if err != nil {
			return 0, err
		}
		ua := slp.NewUserAgent(n, slp.WithConvergenceWait(300*time.Millisecond))
		ua.Lookup(SLPType, func(slp.LookupResult) { done++ })
	}
	if err := sim.RunUntil(func() bool { return done == clients }, time.Minute); err != nil {
		return 0, err
	}
	sim.RunToQuiescence()
	st := bridge.Counts()
	if st.Completed != clients {
		return st.Completed, fmt.Errorf("bench: unit completed %d of %d sessions (failed=%d rejected=%d dropped=%d)",
			st.Completed, clients, st.Failed, st.Rejected, st.Dropped)
	}
	return st.Completed, nil
}

// RunParallelSessions drives `units` independent RunParallelUnit
// simulations across `workers` goroutines and measures aggregate
// session throughput. workers=1 is the sequential baseline; at
// workers = GOMAXPROCS ≥ 4 the run delivers ≥ 2× the baseline
// throughput. The speedup comes from running independent simulators
// on parallel cores — within one simulator the WorkTracker contract
// deliberately serialises session work to keep virtual time
// deterministic, so intra-engine parallelism (sessions of one bridge
// computing simultaneously) shows only under realnet, where no
// virtual clock constrains the session goroutines. Session counts are
// deterministic per baseSeed; Elapsed is wall-clock.
func RunParallelSessions(units, clients, workers int, baseSeed int64) (ParallelResult, error) {
	if units < 1 || workers < 1 {
		return ParallelResult{}, fmt.Errorf("bench: units and workers must be positive")
	}
	res := ParallelResult{Units: units, ClientsPerUnit: clients, Workers: workers}
	jobs := make(chan int64, units)
	for i := 0; i < units; i++ {
		jobs <- baseSeed + int64(i)
	}
	close(jobs)
	var (
		mu       sync.Mutex
		sessions int
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range jobs {
				n, err := RunParallelUnit(clients, seed)
				mu.Lock()
				sessions += n
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Sessions = sessions
	if res.Elapsed > 0 {
		res.PerSecond = float64(sessions) / res.Elapsed.Seconds()
	}
	return res, firstErr
}
