// Command imc2bench regenerates the tables and figures of the paper's
// evaluation (§VII) plus the ablations of internal/experiment (a1–a4)
// and the truth-option calibration grid (cal).
//
// Usage:
//
//	imc2bench -fig all            # every experiment, markdown to stdout
//	imc2bench -fig 4a -reps 100   # one figure at paper-scale repetitions
//	imc2bench -fig 6b -out out/   # also write out/fig6b.csv
//	imc2bench -list               # list experiment IDs
//
// Figure IDs accept either the internal form ("fig4a", "a1") or the bare
// paper number ("4a").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"imc2/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "imc2bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("imc2bench", flag.ContinueOnError)
	var (
		fig   = fs.String("fig", "all", "experiment id (e.g. 3a, fig4b, a1) or 'all'")
		reps  = fs.Int("reps", experiment.DefaultConfig().Reps, "instances per data point (paper used 100)")
		seed  = fs.Int64("seed", experiment.DefaultConfig().Seed, "base seed; identical seeds reproduce identical tables")
		quick = fs.Bool("quick", false, "shrink campaigns and sweeps (smoke mode)")
		dir   = fs.String("out", "", "directory for per-figure CSV files (optional)")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiment.IDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}

	cfg := experiment.Config{Reps: *reps, Seed: *seed, Quick: *quick}
	ids, err := resolveIDs(*fig)
	if err != nil {
		return err
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return fmt.Errorf("creating output directory: %w", err)
		}
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := experiment.Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(out, tbl.Markdown())
		fmt.Fprintf(out, "_(%s: %d rows, %s)_\n\n", id, len(tbl.Rows), time.Since(start).Round(time.Millisecond))
		if *dir != "" {
			path := filepath.Join(*dir, id+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
	}
	return nil
}

// resolveIDs expands "all" and normalizes bare figure numbers.
func resolveIDs(fig string) ([]string, error) {
	if fig == "all" {
		return experiment.IDs(), nil
	}
	id := strings.ToLower(fig)
	for _, known := range experiment.IDs() {
		if id == known || "fig"+id == known {
			return []string{known}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (use -list)", fig)
}
