// Command impulse-sim runs a single workload on a single memory-system
// configuration and prints its metrics — the general-purpose entry point
// for exploring the simulator (the tables have dedicated commands,
// cmd/table1 and cmd/table2).
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

	"impulse"
	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/obs"
	"impulse/internal/profiling"
	"impulse/internal/sim"
	"impulse/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("impulse-sim: ")

	workload := flag.String("workload", "cg", "workload: cg|mmp|cholesky|spark|db|diag|ipc|script")
	scriptFile := flag.String("file", "", "script file (workload=script)")
	mode := flag.String("mode", "conventional", "cg: conventional|sg|recolor; mmp: nocopy|copy|remap; diag/ipc: conventional|impulse")
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

	var pf core.PrefetchPolicy
	switch *prefetch {
	case "none":
		pf = impulse.PrefetchNone
	case "mc":
		pf = impulse.PrefetchMC
	case "l1":
		pf = impulse.PrefetchL1
	case "both":
		pf = impulse.PrefetchBoth
	default:
		log.Fatalf("unknown prefetch policy %q", *prefetch)
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

	var lastSys *impulse.System
	newSystem := func(kind core.ControllerKind) *impulse.System {
		s, err := impulse.NewSystem(impulse.Options{Controller: kind, Prefetch: pf})
		if err != nil {
			log.Fatal(err)
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
		return s
	}

	switch *workload {
	case "script":
		if *scriptFile == "" {
			log.Fatal("workload=script requires -file")
		}
		src, err := os.ReadFile(*scriptFile)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := impulse.ParseScript(string(src))
		if err != nil {
			log.Fatal(err)
		}
		kind := impulse.Conventional
		if *mode == "impulse" || pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
			kind = impulse.Impulse
		}
		res, err := impulse.RunScript(newSystem(kind), prog)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v\nchecksum=%v\n", res.Row, res.Checksum)

	case "cg":
		par := impulse.CGPaperGeometry()
		par.CGIts = *cgits
		par.Niter = *niter
		if *n > 0 {
			par.N = *n
		}
		if *classS {
			par = impulse.CGClassS()
		}
		var cgMode workloads.CGMode
		kind := impulse.Impulse
		switch *mode {
		case "conventional":
			cgMode = impulse.CGConventional
			if pf == impulse.PrefetchNone || pf == impulse.PrefetchL1 {
				kind = impulse.Conventional
			}
		case "sg":
			cgMode = impulse.CGScatterGather
		case "recolor":
			cgMode = impulse.CGRecolor
		default:
			log.Fatalf("unknown cg mode %q", *mode)
		}
		if err := par.Validate(); err != nil {
			log.Fatal(err)
		}
		m := impulse.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
		res, err := impulse.RunCG(newSystem(kind), par, cgMode, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v\nzeta=%.13f rnorm=%.3e nnz=%d\n", res.Row, res.Zeta, res.RNorm, res.NNZ)

	case "mmp":
		par := impulse.MMPDefault()
		if *n > 0 {
			par.N = *n
		}
		par.Tile = *tile
		var mmpMode workloads.MMPMode
		kind := impulse.Conventional
		switch *mode {
		case "conventional", "nocopy":
			mmpMode = impulse.MMPNoCopyTiled
		case "copy":
			mmpMode = impulse.MMPCopyTiled
		case "remap":
			mmpMode = impulse.MMPTileRemap
			kind = impulse.Impulse
		default:
			log.Fatalf("unknown mmp mode %q", *mode)
		}
		if pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
			kind = impulse.Impulse
		}
		res, err := impulse.RunMMP(newSystem(kind), par, mmpMode)
		if err != nil {
			log.Fatal(err)
		}
		want := workloads.RefMMP(par)
		status := "ok"
		if res.Checksum != want {
			status = "MISMATCH"
		}
		fmt.Printf("%v\nchecksum=%v (%s)\n", res.Row, res.Checksum, status)

	case "cholesky":
		nn := 128
		if *n > 0 {
			nn = *n
		}
		var chMode workloads.CholeskyMode
		kind := impulse.Conventional
		switch *mode {
		case "conventional", "nocopy":
			chMode = workloads.CholNoCopy
		case "copy":
			chMode = workloads.CholCopy
		case "remap":
			chMode = workloads.CholRemap
			kind = impulse.Impulse
		default:
			log.Fatalf("unknown cholesky mode %q", *mode)
		}
		if pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
			kind = impulse.Impulse
		}
		res, err := workloads.RunCholesky(newSystem(kind), nn, *tile, chMode)
		if err != nil {
			log.Fatal(err)
		}
		want := workloads.RefCholesky(nn, *tile)
		status := "ok"
		if res.Checksum != want {
			status = "MISMATCH"
		}
		fmt.Printf("%v\nchecksum=%v (%s)\n", res.Row, res.Checksum, status)

	case "spark":
		side := 200
		if *n > 0 {
			side = *n
		}
		mesh := workloads.MakeSparkMesh(side, side)
		gather := *mode == "sg" || *mode == "impulse"
		kind := impulse.Conventional
		if gather || pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
			kind = impulse.Impulse
		}
		res, err := workloads.RunSpark(newSystem(kind), mesh, 1, gather)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v\nchecksum=%v (%s)\n", res.Row, res.Checksum, mesh)

	case "db":
		p := workloads.DBDefault()
		if *n > 0 {
			p.Records = *n
		}
		useImp := *mode == "impulse"
		kind := impulse.Conventional
		if useImp || pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
			kind = impulse.Impulse
		}
		proj, err := workloads.RunDBProjection(newSystem(kind), p, useImp)
		if err != nil {
			log.Fatal(err)
		}
		idx, err := workloads.RunDBIndexScan(newSystem(kind), p, 16, useImp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("projection: %v\nindex scan: %v\n", proj.Row, idx.Row)

	case "diag":
		useImpulse := *mode == "impulse"
		dim := 512
		if *n > 0 {
			dim = *n
		}
		kind := impulse.Conventional
		if useImpulse || pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
			kind = impulse.Impulse
		}
		res, err := workloads.RunDiagonal(newSystem(kind), dim, 4, useImpulse)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)

	case "ipc":
		useImpulse := *mode == "impulse"
		kind := impulse.Conventional
		if useImpulse || pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
			kind = impulse.Impulse
		}
		res, err := workloads.RunIPC(newSystem(kind), 16, 128, 8, useImpulse)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v\nchecksum=%v\n", res.Row, res.Checksum)

	default:
		log.Fatalf("unknown workload %q", *workload)
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
