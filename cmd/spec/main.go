// Command spec prints the layer-by-layer architecture tables — parameters,
// MACs and output shapes — for the paper's models, the numbers behind
// Table 6 and the communication analysis.
//
//	spec                 # summary of every model
//	spec -model resnet50 # full layer table for one model
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/models"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spec: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args and writes the tables to w. A
// malformed flag is an error returned before anything is printed; -h is
// flag.ErrHelp, after the flag package printed the usage.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	names := models.FullSizeNames()
	model := fs.String("model", "", strings.Join(names, " | ")+" (empty = summary of all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *model != "" {
		s, err := models.FullSize(*model)
		if err != nil {
			return err
		}
		fmt.Fprint(w, s.String())
		return nil
	}

	fmt.Fprintf(w, "%-12s %14s %16s %16s %10s\n", "model", "params", "flops/image", "train flops/img", "comp/comm")
	for _, name := range names {
		s, err := models.FullSize(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %14d %16d %16d %10.1f\n",
			name, s.ParamCount(), s.FLOPsPerImage(), s.TrainFLOPsPerImage(), s.ScalingRatio())
	}
	fmt.Fprintln(w, "\ncomp/comm is Table 6's scaling ratio: flops per image / parameters.")
	fmt.Fprintln(w, "Run with -model <name> for the full layer table.")
	return nil
}
