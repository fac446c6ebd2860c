// Command workeragent simulates crowdsourcing workers against a running
// platformd. Both sides derive the campaign deterministically from the
// shared -seed, so the agent knows which answers "its" workers hold.
//
// Usage:
//
//	workeragent -platform http://127.0.0.1:8080 -seed 42 -workers 40 -all
//	workeragent -platform http://127.0.0.1:8080 -seed 42 -workers 40 -index 3
//	workeragent -platform http://127.0.0.1:8080 -seed 42 -workers 40 -close
//	workeragent -platform http://127.0.0.1:8080 -list
//	workeragent -platform http://127.0.0.1:8080 -stats
//	workeragent -platform http://127.0.0.1:8080 -campaign cmp-… -estimate
//	workeragent -platform http://127.0.0.1:8080 -campaign cmp-… -seed 43 -all -close
//	workeragent -platform http://127.0.0.1:8080 -trace 4bf92f3577b34da6a3ce929d0e0e4736
//
// The agent speaks /v2. It targets the campaign named by -campaign (see
// -list for IDs) or, without -campaign, the platform's first campaign:
// platformd's first seeded or first recovered one. -all submits every
// worker as one batch. With -close the agent settles the auction
// asynchronously (it polls until the campaign settles) and prints the
// report, scoring the estimated truth against the ground truth it can
// reconstruct from the seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"imc2/internal/gen"
	"imc2/internal/randx"
	"imc2/internal/stats"
	"imc2/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "workeragent:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("workeragent", flag.ContinueOnError)
	var (
		base      = fs.String("platform", "http://127.0.0.1:8080", "platform base URL")
		seed      = fs.Int64("seed", 42, "campaign seed shared with platformd")
		workers   = fs.Int("workers", 40, "campaign worker population (must match platformd)")
		tasks     = fs.Int("tasks", 60, "campaign task count (must match platformd)")
		copiers   = fs.Int("copiers", 10, "campaign copier count (must match platformd)")
		index     = fs.Int("index", -1, "submit only this worker index")
		all       = fs.Bool("all", false, "submit every worker in the population")
		close_    = fs.Bool("close", false, "close the auction and print the report")
		campaign  = fs.String("campaign", "", "target this campaign ID (empty: the platform's first campaign)")
		list      = fs.Bool("list", false, "list the platform's campaigns and exit")
		estimate  = fs.Bool("estimate", false, "print the campaign's provisional truth estimate, computed on request (requires -campaign), and exit")
		showStats = fs.Bool("stats", false, "print the platform's unified stats snapshot (GET /v2/stats) and exit")
		traceID   = fs.String("trace", "", "pretty-print this trace's span tree (GET /v2/traces/{id}; requires platformd -trace) and exit")
		timeout   = fs.Duration("timeout", time.Minute, "request deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	client := wire.NewClient(*base)
	if !client.Healthy(ctx) {
		return fmt.Errorf("platform at %s is not healthy", *base)
	}

	if *list {
		return listCampaigns(ctx, client, out)
	}
	if *showStats {
		return printStats(ctx, client, out)
	}
	if *traceID != "" {
		return printTrace(ctx, client, *traceID, out)
	}
	if *estimate {
		if *campaign == "" {
			return fmt.Errorf("-estimate requires -campaign (see -list for IDs)")
		}
		return printEstimate(ctx, client, *campaign, out)
	}

	if !*all && *index < 0 && !*close_ {
		return fmt.Errorf("nothing to do: pass -all, -index, -close, -list, -estimate, -stats, or -trace")
	}
	c, err := regenerate(*seed, *workers, *tasks, *copiers)
	if err != nil {
		return err
	}
	id, err := resolveCampaign(ctx, client, *campaign)
	if err != nil {
		return err
	}

	switch {
	case *all:
		subs := make([]wire.Submission, 0, c.Dataset.NumWorkers())
		for i := 0; i < c.Dataset.NumWorkers(); i++ {
			subs = append(subs, submissionFor(c, i))
		}
		n, err := client.SubmitBatch(ctx, id, subs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "submitted %d workers\n", n)
	case *index >= 0:
		if *index >= c.Dataset.NumWorkers() {
			return fmt.Errorf("index %d out of range [0, %d)", *index, c.Dataset.NumWorkers())
		}
		sub := submissionFor(c, *index)
		if err := client.SubmitTo(ctx, id, sub); err != nil {
			return fmt.Errorf("worker %s: %w", sub.Worker, err)
		}
		fmt.Fprintf(out, "submitted worker %s\n", sub.Worker)
	}

	if *close_ {
		report, err := closeCampaign(ctx, client, id)
		if err != nil {
			return err
		}
		printReport(out, c, report)
	}
	return nil
}

// resolveCampaign returns the campaign to act on: id itself, or, when id
// is empty, the first campaign the platform lists.
func resolveCampaign(ctx context.Context, client *wire.Client, id string) (string, error) {
	if id != "" {
		return id, nil
	}
	page, err := client.Campaigns(ctx, 0, 1)
	if err != nil {
		return "", err
	}
	if len(page.Campaigns) == 0 {
		return "", fmt.Errorf("the platform hosts no campaigns")
	}
	return page.Campaigns[0].ID, nil
}

// listCampaigns prints every campaign the platform hosts, following the
// listing's pagination to the end.
func listCampaigns(ctx context.Context, client *wire.Client, out io.Writer) error {
	for offset := 0; ; {
		page, err := client.Campaigns(ctx, offset, 0)
		if err != nil {
			return err
		}
		if offset == 0 {
			fmt.Fprintf(out, "%d campaigns\n", page.Total)
		}
		for _, info := range page.Campaigns {
			fmt.Fprintf(out, "  %s  %-9s  tasks=%d submissions=%d  %s\n",
				info.ID, info.State, info.Tasks, info.Submissions, info.Name)
		}
		offset += len(page.Campaigns)
		if offset >= page.Total || len(page.Campaigns) == 0 {
			return nil
		}
	}
}

// printStats fetches the unified platform snapshot and renders each
// section the way an operator reads it: the registry's population, the
// settle scheduler's admission counters, the store's durability state.
func printStats(ctx context.Context, client *wire.Client, out io.Writer) error {
	st, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "registry: %d campaigns\n", st.Registry.Campaigns)
	states := make([]string, 0, len(st.Registry.States))
	for s := range st.Registry.States {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(out, "  %-9s %d\n", s, st.Registry.States[s])
	}
	if sc := st.Scheduler; sc.Enabled {
		fmt.Fprintf(out, "scheduler: %d/%d active settles, %d queued (peak %d/%d)\n",
			sc.ActiveSettles, sc.MaxConcurrentSettles, sc.QueuedSettles,
			sc.PeakActiveSettles, sc.PeakQueuedSettles)
		fmt.Fprintf(out, "  admitted=%d completed=%d rejected=%d overflowed=%d workers=%d\n",
			sc.TotalAdmitted, sc.TotalCompleted, sc.TotalRejected, sc.TotalOverflowed, sc.Workers)
	} else {
		fmt.Fprintln(out, "scheduler: disabled (settles run unadmitted)")
	}
	if ss := st.Store; ss.Enabled {
		fmt.Fprintf(out, "store: %s (fsync=%s)\n", ss.Dir, ss.Fsync)
		fmt.Fprintf(out, "  seq=%d appended=%d recovered=%d snapshots=%d wal_bytes=%d\n",
			ss.LastSeq, ss.AppendedEvents, ss.RecoveredEvents, ss.SnapshotsWritten, ss.WALBytes)
		if ss.Failed != "" {
			fmt.Fprintf(out, "  FAILED: %s\n", ss.Failed)
		}
	} else {
		fmt.Fprintln(out, "store: in-memory only")
	}
	return nil
}

// printEstimate fetches and renders a campaign's provisional truth
// estimate, which the platform computes on request. A fresh estimate
// (staleness 0) previews exactly what the settled report's truth will
// say if the campaign closes now.
func printEstimate(ctx context.Context, client *wire.Client, campaign string, out io.Writer) error {
	est, err := client.CampaignEstimate(ctx, campaign)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign %s estimate (%s): %d iterations, converged=%v\n",
		est.CampaignID, est.Method, est.Iterations, est.Converged)
	fmt.Fprintf(out, "covers %d submissions (%d stale)\n", est.CoveredSubmissions, est.Staleness)
	if len(est.Truth) == 0 {
		fmt.Fprintln(out, "no estimate (the campaign has no submissions or is no longer open)")
		return nil
	}
	tasks := make([]string, 0, len(est.Truth))
	for id := range est.Truth {
		tasks = append(tasks, id)
	}
	sort.Strings(tasks)
	for _, id := range tasks {
		fmt.Fprintf(out, "  %s = %s\n", id, est.Truth[id])
	}
	return nil
}

// printTrace fetches one trace's full span tree and renders it as an
// indented tree — each span with its duration, attributes, and error,
// span events inset beneath it with their offset from the span's start.
func printTrace(ctx context.Context, client *wire.Client, id string, out io.Writer) error {
	tr, err := client.TraceByID(ctx, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace %s", tr.TraceID)
	if tr.Kind != "" {
		fmt.Fprintf(out, " (%s)", tr.Kind)
	}
	fmt.Fprintf(out, ": %d spans, %.2fms", len(tr.Spans), tr.DurationMS)
	if tr.Error {
		fmt.Fprint(out, ", ERROR")
	}
	fmt.Fprintln(out)
	if tr.DroppedSpans > 0 {
		fmt.Fprintf(out, "(%d spans dropped by the per-trace bound)\n", tr.DroppedSpans)
	}

	// Rebuild the tree: spans whose parent is absent (or none) are roots.
	byID := make(map[string]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		byID[s.SpanID] = true
	}
	children := make(map[string][]int)
	var roots []int
	for i, s := range tr.Spans {
		if s.ParentID != "" && byID[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return tr.Spans[idx[a]].Start.Before(tr.Spans[idx[b]].Start) })
	}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		s := tr.Spans[i]
		indent := strings.Repeat("  ", depth)
		dur := fmt.Sprintf("%.2fms", s.DurationMS)
		if s.InProgress {
			dur = "in progress"
		}
		fmt.Fprintf(out, "%s%s  %s%s", indent, s.Name, dur, attrList(s.Attrs))
		if s.Error != "" {
			fmt.Fprintf(out, "  ERROR: %s", s.Error)
		}
		fmt.Fprintln(out)
		for _, ev := range s.Events {
			fmt.Fprintf(out, "%s  · %s  +%.2fms%s\n",
				indent, ev.Name, float64(ev.At.Sub(s.Start))/float64(time.Millisecond), attrList(ev.Attrs))
		}
		if s.DroppedAttrs > 0 || s.DroppedEvents > 0 {
			fmt.Fprintf(out, "%s  (%d attrs, %d events dropped by per-span bounds)\n",
				indent, s.DroppedAttrs, s.DroppedEvents)
		}
		kids := children[s.SpanID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	byStart(roots)
	for _, r := range roots {
		walk(r, 0)
	}
	return nil
}

// attrList renders span/event attributes as "  [k=v, k=v]", keys sorted.
func attrList(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, k+"="+attrs[k])
	}
	return "  [" + strings.Join(pairs, ", ") + "]"
}

// closeCampaign settles a campaign: close, poll until settled, fetch the
// report.
func closeCampaign(ctx context.Context, client *wire.Client, campaign string) (*wire.Report, error) {
	if _, err := client.CloseCampaign(ctx, campaign); err != nil {
		return nil, err
	}
	if _, err := client.AwaitSettled(ctx, campaign, 0); err != nil {
		return nil, err
	}
	return client.CampaignReport(ctx, campaign)
}

// regenerate rebuilds the campaign platformd generated (same spec shaping
// as platformd's campaignSpec).
func regenerate(seed int64, workers, tasks, copiers int) (*gen.Campaign, error) {
	spec := gen.DefaultSpec()
	spec.Workers = workers
	spec.Tasks = tasks
	spec.Copiers = copiers
	spec.TasksPerWorker = tasks / 3
	if spec.TasksPerWorker < 1 {
		spec.TasksPerWorker = 1
	}
	// Over-provisioned demo requirements: every winner must stay
	// replaceable for critical payments to exist.
	spec.RequirementLow, spec.RequirementHigh = 0.5, 1
	spec.MinProvidersPerTask = 4
	return gen.NewCampaign(spec, randx.New(seed))
}

// submissionFor assembles worker i's sealed envelope.
func submissionFor(c *gen.Campaign, i int) wire.Submission {
	ds := c.Dataset
	answers := make(map[string]string)
	for _, j := range ds.WorkerTasks(i) {
		answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
	}
	return wire.Submission{
		Worker:  ds.WorkerID(i),
		Price:   c.Costs[i],
		Answers: answers,
	}
}

func printReport(out io.Writer, c *gen.Campaign, report *wire.Report) {
	fmt.Fprintf(out, "campaign settled after %d truth-discovery iterations (converged=%v)\n",
		report.TruthIterations, report.Converged)
	fmt.Fprintf(out, "precision vs ground truth: %.4f\n",
		stats.Precision(report.Truth, c.GroundTruth))
	fmt.Fprintf(out, "winners: %d   social cost: %.3f   total payment: %.3f   platform utility: %.3f\n",
		len(report.Winners), report.SocialCost, report.TotalPayment, report.PlatformUtility)

	ids := append([]string(nil), report.Winners...)
	sort.Strings(ids)
	for _, w := range ids {
		fmt.Fprintf(out, "  %s paid %.3f\n", w, report.Payments[w])
	}
}
