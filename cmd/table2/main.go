// Command table2 regenerates the paper's Table 2: tiled matrix-matrix
// product under conventional no-copy tiling, software tile copying, and
// Impulse tile remapping, each with four prefetch policies.
//
// The paper uses 512x512 matrices with 32x32 tiles; the default here is
// 256x256 (the conflict behaviour that distinguishes the three schemes
// depends on tile/cache geometry ratios, which are preserved). Pass
// -n 512 for the paper's exact size.
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
	log.SetPrefix("table2: ")
	def := impulse.MMPDefault()
	n := flag.Int("n", def.N, "matrix dimension (paper: 512)")
	tile := flag.Int("tile", def.Tile, "tile dimension (paper: 32)")
	quiet := flag.Bool("q", false, "suppress progress output")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of the text table")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for table cells (output is identical for any value)")
	flag.Parse()
	impulse.SetWorkers(*jobs)

	par := impulse.MMPParams{N: *n, Tile: *tile}
	progress := func(section, column string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s / %s ...\n", section, column)
		}
	}
	grid, err := impulse.Table2(par, progress)
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
