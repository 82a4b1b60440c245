// Command docsdrift guards EXPERIMENTS.md against drifting from the code
// that generates it. CI regenerates each subset of the document and runs,
// for example,
//
//	experiments -only analytic -markdown -o /tmp/analytic.md
//	docsdrift -generated /tmp/analytic.md -committed EXPERIMENTS.md \
//	          -require "Overlap study,Elasticity study,HotLoop study"
//
// and fails the build when any freshly generated section (a "### " block)
// is missing from, or differs in, the committed document. -require
// additionally asserts that the sections with the named IDs are present
// among the generated ones at all, so a section silently dropping out of
// its subset (the deterministic Overlap, Elasticity and HotLoop studies
// ride in the analytic one despite driving the real engine) is caught
// rather than skipped.
//
// Sections carrying the harness volatile marker (measured-timing tables
// like the HotLoop study) are compared by shape rather than by byte: both
// versions have every digit run normalized to "#" first, so a table whose
// layout, labels and deterministic cells drift still fails while its
// timings are free to vary per machine.
//
// Every subset is checked, one run each: the analytic (closed-form and
// deterministic, instant) sections, the simulated ones (the cluster
// pricer's Tables 1, 8, 9 and Figures 3, 7, also instant) and the measured
// ones (experiments -only measured: real training at the default seed,
// about a minute on two cores). The measured tables regenerate byte for
// byte because a run is bit-reproducible at a fixed seed and worker count,
// with the AVX2 kernels or without them.
// Only the commentary that closes a full run is refreshed by hand, with
//
//	experiments -markdown -o EXPERIMENTS.md
//
// The generator's timestamp comment line is ignored.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("docsdrift: ")

	var (
		generated = flag.String("generated", "", "freshly generated markdown (experiments -only <subset> -markdown)")
		committed = flag.String("committed", "EXPERIMENTS.md", "committed document to check")
		require   = flag.String("require", "", "comma-separated section IDs (e.g. \"Figure 1\") that must appear among the generated sections (guards against a section silently dropping out of its subset)")
	)
	flag.Parse()
	if *generated == "" {
		log.Fatal("-generated is required")
	}

	gen, err := os.ReadFile(*generated)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := os.ReadFile(*committed)
	if err != nil {
		log.Fatal(err)
	}

	sections := splitSections(string(gen))
	if len(sections) == 0 {
		log.Fatalf("%s contains no \"### \" sections — wrong input?", *generated)
	}
	if *require != "" {
		var missing []string
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, s := range sections {
				// A name is a section's whole ID: "Figure 1" is not
				// found in "Figure 10".
				if strings.HasPrefix(heading(s), "### "+name+" — ") {
					found = true
					break
				}
			}
			if !found {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			log.Fatalf("required sections missing from %s: %s", *generated, strings.Join(missing, ", "))
		}
	}
	committedSections := splitSections(string(doc))
	var drifted []string
	for _, s := range sections {
		if strings.Contains(s, harness.VolatileMarker) {
			// Volatile section: find the committed section with the same
			// heading and compare digit-normalized shapes.
			match := ""
			for _, cs := range committedSections {
				if heading(cs) == heading(s) {
					match = cs
					break
				}
			}
			if match == "" || normalizeDigits(match) != normalizeDigits(s) {
				drifted = append(drifted, heading(s)+" (volatile: shape)")
			}
			continue
		}
		if !strings.Contains(string(doc), s) {
			drifted = append(drifted, heading(s))
		}
	}
	if len(drifted) > 0 {
		fmt.Printf("%d of %d generated sections have drifted from %s:\n", len(drifted), len(sections), *committed)
		for _, h := range drifted {
			fmt.Printf("  - %s\n", h)
		}
		fmt.Println("regenerate with: go run ./cmd/experiments -markdown -o EXPERIMENTS.md")
		os.Exit(1)
	}
	fmt.Printf("ok: all %d generated sections match %s\n", len(sections), *committed)
}

// splitSections returns the "### " blocks of a generated markdown document,
// each running to the next section heading, with the generator's timestamp
// comment stripped and surrounding whitespace trimmed.
func splitSections(md string) []string {
	var lines []string
	for _, l := range strings.Split(md, "\n") {
		if strings.HasPrefix(l, "<!-- Generated by cmd/experiments") {
			continue
		}
		lines = append(lines, l)
	}
	var sections []string
	var cur []string
	flush := func() {
		if len(cur) == 0 {
			return
		}
		if s := strings.TrimSpace(strings.Join(cur, "\n")); s != "" {
			sections = append(sections, s)
		}
		cur = nil
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "### ") {
			flush()
		}
		if len(cur) > 0 || strings.HasPrefix(l, "### ") {
			cur = append(cur, l)
		}
	}
	flush()
	return sections
}

// heading returns a section's first line.
func heading(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// normalizeDigits replaces every maximal run of decimal digits with "#",
// the shape under which volatile (measured-timing) sections are compared.
func normalizeDigits(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inRun := false
	for _, r := range s {
		if r >= '0' && r <= '9' {
			if !inRun {
				b.WriteByte('#')
				inRun = true
			}
			continue
		}
		inRun = false
		b.WriteRune(r)
	}
	return b.String()
}
