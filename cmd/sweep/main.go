// Command sweep runs the extension and ablation experiments indexed in
// DESIGN.md: the DRAM scheduler ablation (§2.2's sketched future work vs
// the evaluated in-order scheduler), the superpage TLB experiment ([21]),
// the IPC message-gather scenario (§6), the controller prefetch-SRAM
// sweep, the gather-stride sweep, and the rest of the families in
// harness.Families. The same family table backs the impulsed service's
// {"kind":"sweep"} jobs, so -exp names and service family names always
// agree.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/obs"
	"impulse/internal/profiling"
	"impulse/internal/twin/validate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	valid := append(harness.FamilyNames(), "all")
	exp := flag.String("exp", "all", "experiment: "+strings.Join(valid, "|"))
	fast := flag.Bool("fast", false, "reduced geometries (seconds instead of minutes)")
	counters := flag.String("counters", "", "dump every measured row's counters to this file after the run (\"-\" for stdout)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for experiment rows (output is identical for any value)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	twinValidate := flag.Bool("twin-validate", false, "validate the analytical twins against full simulation and exit (honors -fast, -j)")
	twinJSON := flag.String("twin-json", "", "with -twin-validate, also write the JSON report to this file (\"-\" for stdout)")
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()
	harness.SetWorkers(*jobs)

	found := false
	for _, n := range valid {
		if *exp == n {
			found = true
			break
		}
	}
	if !found {
		log.Fatalf("unknown experiment %q; valid: %s", *exp, strings.Join(valid, ", "))
	}

	var reg obs.Registry
	if *counters != "" {
		core.SetRowObserver(core.CollectRows(&reg))
	}

	// ^C stops between experiment cells instead of mid-table garbage.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *twinValidate {
		rep, err := validate.Run(ctx, *fast)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *twinJSON != "" {
			w := io.Writer(os.Stdout)
			if *twinJSON != "-" {
				f, err := os.Create(*twinJSON)
				if err != nil {
					log.Fatal(err)
				}
				defer f.Close()
				w = f
			}
			if err := rep.WriteJSON(w); err != nil {
				log.Fatal(err)
			}
		}
		if err := rep.Check(); err != nil {
			log.Fatal(err)
		}
		return
	}

	for _, f := range harness.Families() {
		if *exp != "all" && *exp != f.Name {
			continue
		}
		if err := f.Run(ctx, *fast, os.Stdout); err != nil {
			log.Fatalf("%s: %v", f.Name, err)
		}
		fmt.Println()
	}

	if *counters != "" {
		w := io.Writer(os.Stdout)
		if *counters != "-" {
			f, err := os.Create(*counters)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := reg.WriteText(w); err != nil {
			log.Fatal(err)
		}
	}
}
