package main

import (
	"context"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"imc2/internal/gen"
	"imc2/internal/randx"
	"imc2/internal/wire"
)

// TestCrashRecoveryE2E is the durability acceptance test against the
// real daemon: platformd is started with a data directory, fed sealed
// submissions over the wire, and SIGKILLed — once after its campaign
// settled, once before — and each restart on the same directory must
// recover to exactly the state the crash interrupted: the settled
// report bit-identical to a never-crashed baseline run, and an
// unsettled campaign still open with every submission, settling to that
// same baseline.
func TestCrashRecoveryE2E(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL e2e needs a POSIX platform")
	}
	if testing.Short() {
		t.Skip("builds and drives the real daemon; skipped in -short")
	}
	bin := buildPlatformd(t)

	const (
		seed    = 7
		workers = 20
		tasks   = 30
		copiers = 5
	)
	// The same deterministic workload the daemon pre-opens (gen.DemoSpec,
	// shared with run()).
	spec, err := gen.DemoSpec(workers, tasks, copiers)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.NewCampaign(spec, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]wire.Submission, 0, w.Dataset.NumWorkers())
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		ds := w.Dataset
		answers := make(map[string]string)
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		subs = append(subs, wire.Submission{Worker: ds.WorkerID(i), Price: w.Costs[i], Answers: answers})
	}
	args := func(dataDir, addr string) []string {
		return []string{
			"-addr", addr, "-data-dir", dataDir,
			"-seed", fmt.Sprint(seed), "-workers", fmt.Sprint(workers),
			"-tasks", fmt.Sprint(tasks), "-copiers", fmt.Sprint(copiers),
			"-parallelism", "1", "-snapshot-every", "4",
		}
	}
	ctx := context.Background()

	// Baseline: a run that is never crashed (graceful SIGTERM exit).
	baseDir := t.TempDir()
	d := startDaemon(t, bin, args(baseDir, freeAddr(t)))
	id := soleCampaignID(t, d.client)
	if _, err := d.client.SubmitBatch(ctx, id, subs); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.CloseCampaign(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.AwaitSettled(ctx, id, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	baseline, err := d.client.CampaignReport(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	d.stopGracefully(t)

	t.Run("kill-after-settle", func(t *testing.T) {
		dir := t.TempDir()
		d := startDaemon(t, bin, args(dir, freeAddr(t)))
		id := soleCampaignID(t, d.client)
		if _, err := d.client.SubmitBatch(ctx, id, subs); err != nil {
			t.Fatal(err)
		}
		if _, err := d.client.CloseCampaign(ctx, id); err != nil {
			t.Fatal(err)
		}
		if _, err := d.client.AwaitSettled(ctx, id, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		preCrash, err := d.client.CampaignReport(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(preCrash, baseline) {
			t.Fatal("same-seed run diverged from baseline before the crash")
		}
		d.kill(t) // SIGKILL: no flush, no snapshot, no goodbye

		r := startDaemon(t, bin, args(dir, freeAddr(t)))
		defer r.stopGracefully(t)
		snap, err := r.client.Campaign(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != "settled" || !snap.Persisted || snap.RecoveredAt == "" {
			t.Fatalf("recovered snapshot = %+v, want settled+persisted+recovered_at", snap)
		}
		got, err := r.client.CampaignReport(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatal("report after SIGKILL+restart diverged from the never-crashed baseline")
		}
		ps, err := r.client.Stats(ctx)
		if err != nil || !ps.Store.Enabled || ps.Store.RecoveredCampaigns != 1 {
			t.Fatalf("store stats after recovery = %+v, %v", ps, err)
		}
	})

	t.Run("kill-before-close", func(t *testing.T) {
		dir := t.TempDir()
		d := startDaemon(t, bin, args(dir, freeAddr(t)))
		id := soleCampaignID(t, d.client)
		if _, err := d.client.SubmitBatch(ctx, id, subs); err != nil {
			t.Fatal(err)
		}
		d.kill(t) // between the WAL submission append and any snapshot

		r := startDaemon(t, bin, args(dir, freeAddr(t)))
		defer r.stopGracefully(t)
		snap, err := r.client.Campaign(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != "open" || snap.Submissions != len(subs) {
			t.Fatalf("recovered snapshot = %+v, want open with %d submissions", snap, len(subs))
		}
		// The recovered submissions settle to the baseline report: the
		// replayed history is the history.
		if _, err := r.client.CloseCampaign(ctx, id); err != nil {
			t.Fatal(err)
		}
		if _, err := r.client.AwaitSettled(ctx, id, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		got, err := r.client.CampaignReport(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatal("settle over recovered submissions diverged from baseline")
		}
	})

	t.Run("kill-racing-the-settle", func(t *testing.T) {
		// The kill lands at an uncontrolled point between the close
		// request and the settled event's fsync. Whatever it tore, the
		// restart must converge to the baseline report: a settled
		// campaign serves it from the log, a pending one is re-queued
		// automatically, an open one is closed again here.
		dir := t.TempDir()
		d := startDaemon(t, bin, args(dir, freeAddr(t)))
		id := soleCampaignID(t, d.client)
		if _, err := d.client.SubmitBatch(ctx, id, subs); err != nil {
			t.Fatal(err)
		}
		if _, err := d.client.CloseCampaign(ctx, id); err != nil {
			t.Fatal(err)
		}
		d.kill(t)

		r := startDaemon(t, bin, args(dir, freeAddr(t)))
		defer r.stopGracefully(t)
		snap, err := r.client.Campaign(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == "open" && snap.SettleError == "" {
			if _, err := r.client.CloseCampaign(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		awaitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		if _, err := r.client.AwaitSettled(awaitCtx, id, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		got, err := r.client.CampaignReport(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatal("post-crash settle diverged from baseline")
		}
	})
}

// buildPlatformd compiles the daemon once per test run.
func buildPlatformd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "platformd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building platformd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for the daemon. The
// tiny window between Close and the daemon's Listen is an accepted race
// — collisions surface as a failed startDaemon, not silent corruption.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// daemon is one running platformd under test.
type daemon struct {
	cmd    *exec.Cmd
	client *wire.Client
	stderr *strings.Builder
}

func startDaemon(t *testing.T, bin string, args []string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &stderr}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_, _ = d.cmd.Process.Wait()
		}
	})
	addr := args[1] // "-addr" value
	d.client = wire.NewClient("http://" + addr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ok := d.client.Healthy(ctx)
		cancel()
		if ok {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("platformd never became healthy on %s\nstderr:\n%s", addr, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon: no graceful shutdown, no store flush.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = d.cmd.Process.Wait()
}

// stopGracefully sends SIGTERM and waits for the drain-and-flush exit.
func (d *daemon) stopGracefully(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		// Already gone (e.g. the cleanup raced); nothing to drain.
		return
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		var exitErr *exec.ExitError
		if err != nil && !isSignalExit(err, &exitErr) {
			t.Fatalf("platformd exit: %v\nstderr:\n%s", err, d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatalf("platformd did not drain within 30s of SIGTERM\nstderr:\n%s", d.stderr.String())
	}
}

// isSignalExit reports whether err is the expected exit of a daemon
// stopped by signal (platformd returns the http.ErrServerClosed path
// with status 0, but a SIGTERM race can also surface as signal exit).
func isSignalExit(err error, exitErr **exec.ExitError) bool {
	if ee, ok := err.(*exec.ExitError); ok {
		*exitErr = ee
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return true
		}
	}
	return false
}

// soleCampaignID fetches the single pre-opened campaign's ID.
func soleCampaignID(t *testing.T, client *wire.Client) string {
	t.Helper()
	page, err := client.Campaigns(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Campaigns) != 1 {
		t.Fatalf("daemon hosts %d campaigns, want 1", len(page.Campaigns))
	}
	return page.Campaigns[0].ID
}
