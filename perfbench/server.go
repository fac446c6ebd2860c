package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/truth"
	"imc2/internal/wire"
)

// platformd's defaults for the pieces the benchmark wires.
const (
	maxSettles    = 2
	maxQueued     = 64
	snapshotEvery = 256
)

// settleConfig is platformd's settle configuration (r=0.8, α=0.05,
// MaxIterations 100, parallelism 0) with the workload's mechanism.
func settleConfig(mech platform.Mechanism) platform.Config {
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.CopyProb = 0.8
	cfg.TruthOptions.PriorDependence = 0.05
	cfg.TruthOptions.Parallelism = 0
	cfg.Mechanism = mech
	return cfg
}

// server is one in-process platform, wired as cmd/platformd wires it: a
// wire.RegistryServer over a registry with a settle scheduler and a
// durable FileStore (fsync policy settle) in its own directory, behind a
// loopback HTTP listener. Metrics, tracing and the live estimator are off.
type server struct {
	dir   string
	sched *sched.Scheduler
	store *store.FileStore
	reg   *registry.Registry
	srv   *wire.Server
	hs    *http.Server
	done  chan error
	base  string
}

// openServer starts a platform in dir. With probe non-nil the server is
// wired for the traced run: the store is wrapped in probe's timing
// decorator, the settle configuration carries probe's truth trace sink,
// warm-start seam and admission wrapper, and so the scheduler reaches
// settles through the configuration instead of the registry (the only
// wiring difference from platformd; settles still queue on the same
// scheduler and run on its pool).
func openServer(dir string, mech platform.Mechanism, probe *probe) (*server, error) {
	st, err := store.Open(store.Options{Dir: dir, SnapshotEvery: snapshotEvery, Fsync: store.FsyncSettle})
	if err != nil {
		return nil, err
	}
	s := &server{
		dir:   dir,
		store: st,
		sched: sched.New(sched.Config{MaxConcurrentSettles: maxSettles, MaxQueuedSettles: maxQueued}),
		done:  make(chan error, 1),
	}
	cfg := settleConfig(mech)
	opts := []registry.Option{registry.WithObservability(nil), registry.WithTracing(nil)}
	if probe == nil {
		opts = append(opts, registry.WithScheduler(s.sched), registry.WithStore(st))
	} else {
		opts = append(opts, registry.WithStore(timedStore{st, probe}))
		cfg.Admission = timedAdmission{s.sched, probe}
		cfg.TruthOptions.Executor = s.sched.Pool()
		cfg.TruthOptions.Trace = probe
		cfg.WarmStart = func(int) *truth.Engine {
			probe.assembled()
			return nil
		}
	}
	s.reg = registry.New(opts...)
	// platformd logs every request through slog to stderr; the benchmark
	// keeps the formatting work and drops the output.
	slogger := slog.New(slog.NewTextHandler(io.Discard, nil))
	logf := func(format string, args ...any) { slogger.Info(fmt.Sprintf(format, args...)) }
	s.srv = wire.NewRegistryServer(s.reg, "", cfg, logf,
		wire.WithObs(nil), wire.WithSlog(slogger), wire.WithTracing(nil))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.sched.Close()
		st.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, drains settles, closes the store and the
// scheduler (in platformd's shutdown order) and removes the directory.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := s.store.Close(); serr != nil && err == nil {
		err = serr
	}
	s.sched.Close()
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// checkAppended checks that the store logged exactly want events and
// never failed: every acknowledged write is durable.
func (s *server) checkAppended(want int) error {
	st := s.store.Stats()
	if st.AppendedEvents != uint64(want) || st.Failed != "" || st.SnapshotError != "" {
		return fmt.Errorf("store appended %d events (want %d), failed %q, snapshot error %q",
			st.AppendedEvents, want, st.Failed, st.SnapshotError)
	}
	return nil
}
