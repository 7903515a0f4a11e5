// Command table1 regenerates the paper's Table 1: the NAS conjugate
// gradient benchmark under three memory-system configurations
// (conventional, Impulse scatter/gather, Impulse page recoloring) and
// four prefetch policies (none, controller, L1 cache, both).
//
// The default geometry keeps the paper's Class A matrix dimension
// (n=14000, so the multiplicand exceeds the L1 as in the paper) with
// reduced nonzeros/row and iteration count; -full runs the complete 25
// inner iterations. See EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"impulse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("table1: ")
	par := impulse.CGPaperGeometry()
	n := flag.Int("n", par.N, "matrix dimension")
	nonzer := flag.Int("nonzer", par.Nonzer, "nonzeros per generated sparse vector")
	niter := flag.Int("niter", par.Niter, "outer iterations")
	cgits := flag.Int("cgits", 8, "inner CG iterations per solve (paper: 25)")
	full := flag.Bool("full", false, "run the full 25 inner iterations")
	shift := flag.Float64("shift", par.Shift, "diagonal shift")
	quiet := flag.Bool("q", false, "suppress progress output")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of the text table")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for table cells (output is identical for any value)")
	flag.Parse()
	impulse.SetWorkers(*jobs)

	par.N, par.Nonzer, par.Niter, par.CGIts, par.Shift = *n, *nonzer, *niter, *cgits, *shift
	if *full {
		par.CGIts = 25
	}

	progress := func(section, column string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s / %s ...\n", section, column)
		}
	}
	grid, err := impulse.Table1(par, progress)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		if err := grid.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := grid.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
