// Package experiment regenerates every table and figure of the paper's
// evaluation (§VII) plus four ablations (a1–a4) and the truth-option
// calibration grid (cal). Each figure is a parameter sweep over generated campaigns; results are rendered as
// aligned text, markdown, or CSV.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"imc2/internal/gen"
	"imc2/internal/stats"
)

// Config controls sweep sizes and reproducibility.
type Config struct {
	// Reps is the number of generated instances averaged per data point
	// (the paper uses 100; the CLI default is 20).
	Reps int
	// Seed derives every instance's randomness; identical seeds give
	// identical tables.
	Seed int64
	// Quick shrinks campaigns and sweeps for smoke tests and benchmarks.
	Quick bool
}

// DefaultConfig is the CLI default.
func DefaultConfig() Config {
	return Config{Reps: 20, Seed: 1}
}

// Validate reports an invalid configuration.
func (c Config) Validate() error {
	if c.Reps < 1 {
		return fmt.Errorf("experiment: Reps %d must be >= 1", c.Reps)
	}
	return nil
}

// Row is one point of one series.
type Row struct {
	Series string
	X      float64
	Y      float64
	CI     float64 // 95% half-width over the repetitions
	N      int
}

// Table is a rendered figure: rows grouped by series over the X sweep.
type Table struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Rows   []Row
}

// Series returns the ordered distinct series names.
func (t *Table) Series() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range t.Rows {
		if !seen[r.Series] {
			seen[r.Series] = true
			out = append(out, r.Series)
		}
	}
	return out
}

// SeriesMean returns the mean Y over all rows of one series.
func (t *Table) SeriesMean(series string) float64 {
	var sum float64
	n := 0
	for _, r := range t.Rows {
		if r.Series == series {
			sum += r.Y
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Lookup returns the row for (series, x).
func (t *Table) Lookup(series string, x float64) (Row, bool) {
	for _, r := range t.Rows {
		if r.Series == series && r.X == x {
			return r, true
		}
	}
	return Row{}, false
}

// CSV renders the table as series,x,y,ci95,n lines.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series,%s,%s,ci95,n\n", csvEscape(t.XLabel), csvEscape(t.YLabel))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%g,%g,%g,%d\n", csvEscape(r.Series), r.X, r.Y, r.CI, r.N)
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Markdown renders the table as a pivoted markdown grid (one column per
// series).
func (t *Table) Markdown() string {
	series := t.Series()
	xs := t.xValues()

	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |", t.XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %s |", s)
	}
	b.WriteString("\n|")
	for i := 0; i < len(series)+1; i++ {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "| %g |", x)
		for _, s := range series {
			if r, ok := t.Lookup(s, x); ok {
				fmt.Fprintf(&b, " %.4g ±%.2g |", r.Y, r.CI)
			} else {
				b.WriteString(" – |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (t *Table) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, r := range t.Rows {
		if !seen[r.X] {
			seen[r.X] = true
			xs = append(xs, r.X)
		}
	}
	sort.Float64s(xs)
	return xs
}

// point aggregates per-repetition measurements into a Row.
func point(series string, x float64, samples []float64) Row {
	s := stats.Summarize(samples)
	return Row{Series: series, X: x, Y: s.Mean, CI: s.CI95(), N: s.N}
}

// baseSpec is the campaign layout every figure starts from: the paper's
// defaults, shrunk under Quick.
func (c Config) baseSpec() gen.CampaignSpec {
	spec := gen.DefaultSpec()
	if c.Quick {
		spec.Workers = 30
		spec.Tasks = 40
		spec.Copiers = 9
		spec.TasksPerWorker = 12
		spec.ParticipationDecay = 1
		spec.RequirementLow, spec.RequirementHigh = 1, 2
	}
	return spec
}

// reps returns the effective repetition count.
func (c Config) reps() int {
	if c.Quick && c.Reps > 3 {
		return 3
	}
	return c.Reps
}

// sweep returns full unless Quick, in which case quick.
func (c Config) sweep(full, quick []float64) []float64 {
	if c.Quick {
		return quick
	}
	return full
}

// IDs lists every experiment in presentation order.
func IDs() []string {
	return []string{
		"fig3a", "fig3b",
		"fig4a", "fig4b",
		"fig5a", "fig5b",
		"fig6a", "fig6b",
		"fig7a", "fig7b",
		"fig8a", "fig8b",
		"a1", "a2", "a3", "a4", "cal",
	}
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch id {
	case "fig3a":
		return fig3a(cfg)
	case "fig3b":
		return fig3b(cfg)
	case "fig4a":
		return fig4(cfg, sweepTasks, "fig4a")
	case "fig4b":
		return fig4(cfg, sweepWorkers, "fig4b")
	case "fig5a":
		return fig5(cfg, sweepTasks, "fig5a")
	case "fig5b":
		return fig5(cfg, sweepWorkers, "fig5b")
	case "fig6a":
		return fig67(cfg, sweepTasks, "fig6a", metricSocialCost)
	case "fig6b":
		return fig67(cfg, sweepWorkers, "fig6b", metricSocialCost)
	case "fig7a":
		return fig67(cfg, sweepTasks, "fig7a", metricRuntime)
	case "fig7b":
		return fig67(cfg, sweepWorkers, "fig7b", metricRuntime)
	case "fig8a":
		return fig8(cfg, true)
	case "fig8b":
		return fig8(cfg, false)
	case "a1":
		return ablationApproxRatio(cfg)
	case "a2":
		return ablationSimilarity(cfg)
	case "a3":
		return ablationNonuniform(cfg)
	case "a4":
		return ablationStrategies(cfg)
	case "cal":
		return calibration(cfg)
	default:
		return nil, fmt.Errorf("experiment: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
}
