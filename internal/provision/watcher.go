// Package provision turns Starlink into a dynamically provisioned,
// multi-tenant runtime: bridges are no longer chosen once at process
// start, but assembled from declarative models when heterogeneous
// parties actually meet (the paper's headline *runtime*
// interoperability claim, and the dynamic mediator selection of
// Spalazzese & Inverardi's mediating connectors).
//
// The package has two parts:
//
//   - a polling Watcher that re-applies a model directory through
//     registry.LoadFS (on every poll, or on demand, e.g. from SIGHUP),
//     so a new case dropped into the directory deploys with zero
//     restart;
//   - a Dispatcher that hosts every loaded case in one daemon at once:
//     it indexes each case's entry colors, binds one shared listener
//     per color, and classifies unknown inbound payloads — each
//     candidate protocol's parser reads the message-selection rule
//     field alone — before handing them to the right engine. Deploy creates the bridge host it runs on. What
//     it observes goes to one Sink, which every hosted engine shares;
//     what it counts is read as one Snapshot.
package provision

import (
	"os"
	"sync"
	"time"

	"starlink/internal/registry"
)

// Watcher keeps a registry synchronised with a model directory: every
// poll is one registry.LoadFS, and the registry decides by content what
// changed (a byte-identical file is a no-op). When something applied, or
// the load failed part-way, the onApply hook runs — typically
// Dispatcher.Sync — so new cases deploy with zero restart. Reload can
// also be driven directly (e.g. from a SIGHUP handler).
type Watcher struct {
	reg      *registry.Registry
	dir      string
	interval time.Duration
	onApply  func(registry.LoadResult)
	logf     func(format string, args ...any)

	mu sync.Mutex // serialises loads

	startOnce sync.Once
	stopOnce  sync.Once
	quit      chan struct{}
	done      chan struct{}
}

// NewWatcher builds a watcher over dir. interval is the polling
// period for Start (values <= 0 disable polling; Reload still works).
// onApply, if non-nil, runs after every Reload — including no-op ones —
// and after every poll that changed the registry or failed, with the
// load's result. logf, if non-nil, receives progress and error lines.
func NewWatcher(reg *registry.Registry, dir string, interval time.Duration, onApply func(registry.LoadResult), logf func(format string, args ...any)) *Watcher {
	return &Watcher{
		reg:      reg,
		dir:      dir,
		interval: interval,
		onApply:  onApply,
		logf:     logf,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (w *Watcher) logeach(format string, args ...any) {
	if w.logf != nil {
		w.logf(format, args...)
	}
}

// Reload applies the directory to the registry and runs the onApply
// hook unconditionally. Unchanged files are no-ops inside LoadFS, so a
// Reload with nothing new mutates nothing. Safe for concurrent use.
func (w *Watcher) Reload() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.loadLocked(true)
}

// loadLocked runs one LoadFS and the hook: always when force is set,
// otherwise only when the load changed the registry or failed. A failed
// load is retried by the next poll, because the next poll loads again;
// the hook runs on failure too, because LoadFS applies files up to the
// failure and whatever did apply must still reach the deployments.
// Caller holds mu.
func (w *Watcher) loadLocked(force bool) error {
	res, err := registry.LoadFS(w.reg, os.DirFS(w.dir))
	if res.Changed() {
		w.logeach("provision: %s: %s", w.dir, res)
	}
	if w.onApply != nil && (force || err != nil || res.Changed()) {
		w.onApply(res)
	}
	return err
}

// Start launches the polling goroutine. It is a no-op when the
// watcher was built with a non-positive interval.
func (w *Watcher) Start() {
	w.startOnce.Do(func() {
		if w.interval <= 0 {
			close(w.done)
			return
		}
		go w.loop()
	})
}

func (w *Watcher) loop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			if err := w.loadLocked(false); err != nil {
				w.logeach("provision: reload %s: %v", w.dir, err)
			}
			w.mu.Unlock()
		case <-w.quit:
			return
		}
	}
}

// Stop terminates the polling goroutine and waits for it to exit.
func (w *Watcher) Stop() {
	w.stopOnce.Do(func() { close(w.quit) })
	w.Start() // ensure done is closed even if Start was never called
	<-w.done
}
