// Command impulse-sim runs a single workload on a single memory-system
// configuration and prints its metrics — the general-purpose entry point
// for exploring the simulator (the tables have dedicated commands,
// cmd/table1 and cmd/table2). The run itself is harness.RunSim, which
// the service's sim jobs also call; this command adds its observers.
//
// Examples:
//
//	impulse-sim -workload cg -mode sg -prefetch both -n 14000
//	impulse-sim -workload mmp -mode remap -n 256 -tile 32
//	impulse-sim -workload diag -mode impulse
//	impulse-sim -workload ipc -mode impulse
//	impulse-sim -workload diag -mode impulse -trace out.json -series out.csv -counters -
//	impulse-sim -selftest
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/obs"
	"impulse/internal/profiling"
	"impulse/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("impulse-sim: ")

	workload := flag.String("workload", "cg", "workload: cg|mmp|cholesky|spark|db|diag|ipc|script")
	scriptFile := flag.String("file", "", "script file (workload=script)")
	mode := flag.String("mode", "conventional", harness.SimModeHelp())
	prefetch := flag.String("prefetch", "none", "prefetch policy: none|mc|l1|both")
	n := flag.Int("n", 0, "problem dimension (0 = workload default)")
	tile := flag.Int("tile", 32, "mmp tile dimension")
	cgits := flag.Int("cgits", 8, "cg inner iterations")
	niter := flag.Int("niter", 1, "cg outer iterations")
	classS := flag.Bool("classS", false, "run the full NPB Class S geometry (n=1400, 15x25 iterations)")
	selftest := flag.Bool("selftest", false, "run the randomized end-to-end gather verification and exit")
	events := flag.Int("events", 0, "print the first N simulated memory events")
	hist := flag.Bool("hist", false, "print the load-latency histogram after the run")
	tracePath := flag.String("trace", "", "write a Perfetto/Chrome trace-event JSON of the run to this file")
	traceLimit := flag.Int("trace-limit", 1<<20, "maximum span events retained in the trace buffer")
	seriesPath := flag.String("series", "", "write windowed utilization time-series to this file (.json for JSON, else CSV)")
	window := flag.Uint64("window", 10000, "time-series window width in cycles")
	counters := flag.String("counters", "", "dump the counter registry to this file after the run (\"-\" for stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	if *selftest {
		verified, err := harness.RandomGatherCheck(1, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("selftest ok: %d gathered elements verified against memory contents\n", verified)
		return
	}

	var src []byte
	if *workload == "script" {
		if *scriptFile == "" {
			log.Fatal("workload=script requires -file")
		}
		if src, err = os.ReadFile(*scriptFile); err != nil {
			log.Fatal(err)
		}
	}

	// One hub serves the whole invocation; workloads that build several
	// systems (db) attach each in turn, yielding one trace with a track
	// group per machine and "newest machine wins" registry entries.
	var hub *obs.Hub
	if *tracePath != "" || *seriesPath != "" || *counters != "" {
		cfg := obs.Config{}
		if *tracePath != "" {
			cfg.TraceLimit = *traceLimit
		}
		if *seriesPath != "" {
			cfg.Window = *window
		}
		hub = obs.New(cfg)
	}

	var lastSys *core.System
	newSystem := func(opts core.Options) (*core.System, error) {
		s, err := core.NewSystem(opts)
		if err != nil {
			return nil, err
		}
		lastSys = s
		if hub != nil {
			s.AttachObs(hub)
		}
		if *events > 0 {
			remaining := *events
			s.SetTracer(func(e sim.TraceEvent) {
				if remaining > 0 {
					fmt.Println(e)
					remaining--
				}
			})
		}
		return s, nil
	}

	p := harness.SimParams{Workload: *workload, Mode: *mode, Prefetch: *prefetch, N: *n,
		Tile: *tile, CGIts: *cgits, Niter: *niter, ClassS: *classS, Script: string(src)}
	if err := harness.RunSim(p, newSystem, nil, os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *hist && lastSys != nil {
		fmt.Printf("\nload-latency histogram (cycles):\n%s", lastSys.St.LoadLatency.String())
	}
	if hub != nil {
		if *tracePath != "" {
			writeTo(*tracePath, hub.WriteTrace)
			if d := hub.Trace().Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "trace: %d events dropped past -trace-limit %d\n", d, *traceLimit)
			}
		}
		if *seriesPath != "" {
			if strings.HasSuffix(*seriesPath, ".json") {
				writeTo(*seriesPath, hub.Series().WriteJSON)
			} else {
				writeTo(*seriesPath, hub.Series().WriteCSV)
			}
		}
		if *counters != "" {
			writeTo(*counters, hub.Reg().WriteText)
		}
	}
}

// writeTo streams f to path, with "-" meaning stdout.
func writeTo(path string, f func(io.Writer) error) {
	if path == "-" {
		if err := f(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	out, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := f(out); err != nil {
		out.Close()
		log.Fatal(err)
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}
}
