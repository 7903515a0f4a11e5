// Command impulsed is the Impulse experiment service: a long-lived
// daemon that accepts experiment specs over HTTP/JSON, runs them on a
// bounded job queue over the shared simulation harness, deduplicates
// identical in-flight submissions single-flight style, caches results
// by canonical spec hash, and streams live progress over SSE. Results
// persist in a content-addressed store under -archive-dir, so a
// restarted daemon serves yesterday's cache hits from disk. With
// -route it instead fronts a fleet of worker daemons, routing every
// submission by spec hash (docs/FLEET.md). See docs/SERVICE.md for the
// API, docs/OBSERVABILITY.md for metrics, timelines, and manifests,
// and cmd/impulsectl for a client.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"flag"

	"impulse"
	"impulse/internal/fleet"
	"impulse/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7777", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once bound")
	queueDepth := flag.Int("queue", 64, "max queued jobs before submissions get 429")
	executors := flag.Int("exec", 2, "jobs running concurrently")
	cacheSize := flag.Int("cache", 128, "finished jobs kept for result reuse")
	archiveBytes := flag.Int64("archive-bytes", 256<<20, "byte budget for archived columnar result blobs (LRU evicts beyond it)")
	archiveDir := flag.String("archive-dir", "", "directory for archived result blobs (empty: private temp dir, removed on exit)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "harness worker goroutines per running job")
	route := flag.String("route", "", "comma-separated shard URLs (name=url or bare url): serve as a fleet router over these backends instead of executing locally")
	cyclesPerSec := flag.Float64("fleet-cycles-per-sec", 0, "with -route: simulated cycles one shard executor burns per wall second (Retry-After calibration; 0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long graceful shutdown waits for in-flight jobs")
	slowJob := flag.Duration("slow-job", time.Minute, "warn about jobs whose execution exceeds this (0 disables)")
	logFormat := flag.String("log-format", "json", "log output format: json or text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "impulsed: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, hopts)
	default:
		fmt.Fprintf(os.Stderr, "impulsed: bad -log-format %q (json|text)\n", *logFormat)
		os.Exit(2)
	}
	log := slog.New(handler)
	slog.SetDefault(log)

	impulse.SetWorkers(*jobs)

	svc := service.New(service.Config{
		QueueDepth:       *queueDepth,
		Executors:        *executors,
		CacheSize:        *cacheSize,
		CacheBytes:       *archiveBytes,
		ArchiveDir:       *archiveDir,
		Logger:           log,
		SlowJobThreshold: *slowJob,
	})

	// Router mode: the daemon fronts N worker impulsed backends, routing
	// submissions by spec hash; its own service stays for the twin tier.
	var rt *fleet.Router
	httpHandler := svc.Handler()
	if *route != "" {
		var shards []fleet.ShardConfig
		for i, f := range strings.Split(*route, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			sc := fleet.ShardConfig{Name: fmt.Sprintf("s%d", i), URL: f}
			if name, u, ok := strings.Cut(f, "="); ok && !strings.Contains(name, "/") {
				sc.Name, sc.URL = name, u
			}
			shards = append(shards, sc)
		}
		var err error
		rt, err = fleet.New(fleet.Config{
			Shards:          shards,
			Local:           svc,
			CyclesPerSecond: *cyclesPerSec,
			Logger:          log,
		})
		if err != nil {
			log.Error("fleet setup", "err", err)
			os.Exit(1)
		}
		httpHandler = rt.Handler()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	actual := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(actual+"\n"), 0o644); err != nil {
			log.Error("writing addr file", "path", *addrFile, "err", err)
			os.Exit(1)
		}
	}
	if rt != nil {
		log.Info("routing", "url", "http://"+actual, "shards", *route)
	}
	log.Info("listening", "url", "http://"+actual, "queue", *queueDepth, "exec", *executors,
		"cache", *cacheSize, "archive_bytes", *archiveBytes, "workers", *jobs,
		"slow_job", slowJob.String())

	srv := &http.Server{Handler: httpHandler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		log.Error("serve failed", "err", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}

	log.Info("shutting down", "drain_timeout", drainTimeout.String())
	if rt != nil {
		rt.Close()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		log.Warn("drain", "err", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	fmt.Fprintln(os.Stderr, "impulsed: bye")
}
