// Command experiments runs the full reproduction suite — every table and
// figure of the paper — and writes the results as Markdown (for
// EXPERIMENTS.md) or aligned text. Full runs close with a commentary
// section noting residuals against the paper's communication tables.
//
//	experiments                  # everything, text to stdout (about 1 minute on 2 cores)
//	experiments -only analytic   # just the closed-form exhibits (instant)
//	experiments -markdown -o EXPERIMENTS.md
//
// Nearly all of a full run is the measured subset: one sweep of 15
// training runs, shared by every measured table.
//
// The committed EXPERIMENTS.md is kept honest by CI: the docs-drift job
// regenerates each subset (-only analytic, simulated and measured, with
// -markdown) and fails via cmd/docsdrift when one diverges from the
// committed document.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// subsets are the values -only accepts.
var subsets = []string{"all", "analytic", "simulated", "measured"}

// run is the whole command: it parses args, generates the chosen exhibits
// and writes the document to the -o file, or to w without one. A flag value
// it cannot use is an error returned before anything is generated or
// written; -h is flag.ErrHelp, after the flag package printed the usage.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		markdown = fs.Bool("markdown", false, "emit Markdown instead of aligned text")
		out      = fs.String("o", "", "output file (default stdout)")
		only     = fs.String("only", "all", "subset: "+strings.Join(subsets, " | "))
		epochs   = fs.Int("epochs", 20, "epoch budget for measured experiments")
		seed     = fs.Uint64("seed", 1, "seed for measured experiments")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(subsets, *only) {
		return fmt.Errorf("-only %q, want %s", *only, strings.Join(subsets, " | "))
	}
	if *epochs < 1 {
		return fmt.Errorf("-epochs %d, want >= 1", *epochs)
	}

	// Each exhibit is generated in document order; the first error ends
	// the run before anything is written.
	var gens []func() (*harness.Table, error)
	noErr := func(tables ...func() *harness.Table) {
		for _, f := range tables {
			gens = append(gens, func() (*harness.Table, error) { return f(), nil })
		}
	}
	wantAnalytic := *only == "all" || *only == "analytic"
	wantSimulated := *only == "all" || *only == "simulated"
	wantMeasured := *only == "all" || *only == "measured"

	if wantSimulated {
		noErr(harness.Table1)
	}
	if wantAnalytic {
		// Table 2 priced with a DGX-1-like tcomp for AlexNet B=512 and a
		// tree-allreduce tcomm on FDR InfiniBand.
		noErr(func() *harness.Table { return harness.Table2(0.09, 0.05) },
			harness.Table3, harness.Table4, harness.Table6)
		gens = append(gens,
			// Deterministic despite driving the real engine: the counters
			// are exact schedule arithmetic, so they regenerate
			// bit-identically and ride in the docs-drift-checked analytic
			// subset.
			harness.OverlapStudy,
			harness.ElasticityStudy,
			// Exact arithmetic on a fixed traffic trace: the autoscaler
			// replay is deterministic end to end, drift-checked
			// byte-for-byte.
			harness.AutoscaleStudy,
			// Deterministic in shape (and its identity column in value);
			// the timing cells are measured, so the table is marked
			// volatile and docsdrift compares its digit-normalized shape.
			harness.HotLoopStudy,
			// Same contract as HotLoop: exact identity/accuracy cells,
			// measured timing cells, volatile shape-only drift checking.
			harness.MixedPrecisionStudy,
			// Fully deterministic: the serve scheduler runs on a virtual
			// clock, so every latency percentile is exact arithmetic and
			// the study is drift-checked byte-for-byte like the other
			// analytic exhibits.
			harness.ServeStudy,
			// Same contract as MixedPrecision: exact identity and analytic
			// cells, measured wall cells, volatile shape-only drift
			// checking.
			harness.ProgressiveResolutionStudy,
			// Deterministic end to end (the async endpoint runs on a
			// virtual clock), so the spectrum table is drift-checked
			// byte-for-byte.
			harness.LocalSGDStudy)
	}
	if wantMeasured {
		// One setup under every measured table: a configuration two
		// tables share trains once.
		setup := harness.DefaultSetup()
		setup.Epochs = *epochs
		setup.Seed = *seed
		for _, f := range []func(*harness.Setup) (*harness.Table, error){
			harness.Figure1, harness.Table5, harness.Table7, harness.Figure4,
			harness.Figure5and6, harness.AllreduceStudy,
		} {
			gens = append(gens, func() (*harness.Table, error) { return f(setup) })
		}
	}
	if wantSimulated {
		noErr(harness.Figure3, harness.Figure7, harness.Table8, harness.Table9)
	}
	if wantAnalytic {
		noErr(harness.Table10, harness.Table11, harness.Table12,
			harness.Figure8, harness.Figure9, harness.Figure10)
	}

	start := time.Now()
	var b strings.Builder
	if *markdown {
		fmt.Fprintf(&b, "<!-- Generated by cmd/experiments on %s; regenerate with: go run ./cmd/experiments -markdown -o EXPERIMENTS.md -->\n\n",
			time.Now().Format("2006-01-02"))
	}
	for _, gen := range gens {
		t, err := gen()
		if err != nil {
			return err
		}
		log.Printf("done: %s", t.ID)
		if *markdown {
			b.WriteString(t.Markdown())
		} else {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}
	if *only == "all" {
		// The commentary closes the full document only; subset runs (the
		// docs-drift job's -only analytic) compare tables alone.
		b.WriteString(harness.Commentary(*markdown))
	}
	log.Printf("suite completed in %s", time.Since(start).Round(time.Second))

	if *out == "" {
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", *out)
	return nil
}
