package harness

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"impulse/internal/workloads"
)

func smallCG() workloads.CGParams {
	return workloads.CGParams{N: 240, Nonzer: 4, Niter: 1, CGIts: 4, Shift: 10, RCond: 0.1}
}

func TestTable1SmallGrid(t *testing.T) {
	// Pool workers call progress concurrently (see Progress).
	var calls atomic.Int64
	g, err := Table1(context.Background(), smallCG(), func(section, column string) { calls.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 12 {
		t.Errorf("progress called %d times, want 12", n)
	}
	if len(g.Sections) != 3 || len(g.Cells) != 3 || len(g.Cells[0]) != 4 {
		t.Fatalf("grid shape: %d sections, %dx%d cells", len(g.Sections), len(g.Cells), len(g.Cells[0]))
	}
	if g.Baseline().Speedup != 1.0 {
		t.Errorf("baseline speedup = %v", g.Baseline().Speedup)
	}
	for si := range g.Cells {
		for ci := range g.Cells[si] {
			c := g.Cells[si][ci]
			if c.Row.Cycles == 0 || c.Speedup <= 0 {
				t.Errorf("cell %d/%d empty: %+v", si, ci, c)
			}
		}
	}
	var b strings.Builder
	if err := g.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table 1", "Conventional memory system", "scatter/gather", "page recoloring", "speedup", "avg load time"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestTable1RejectsUnreachableNonzer: with nonzer > n no vector can hold
// nonzer distinct positions, so Table1 must return an error before it
// starts generating the matrix rather than spin forever.
func TestTable1RejectsUnreachableNonzer(t *testing.T) {
	par := smallCG()
	par.N, par.Nonzer = 16, 17
	done := make(chan error, 1)
	go func() {
		_, err := Table1(context.Background(), par, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Table1 accepted nonzer > n")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Table1 with nonzer > n did not return")
	}
}

func TestTable2SmallGrid(t *testing.T) {
	g, err := Table2(context.Background(), workloads.MMPTiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 3 || len(g.Cells[2]) != 4 {
		t.Fatal("grid shape wrong")
	}
	var b strings.Builder
	if err := g.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tile remapping") {
		t.Error("render missing tile remapping section")
	}
}

func TestFigure1(t *testing.T) {
	var b strings.Builder
	if err := Figure1(context.Background(), 128, 2, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "bus bytes", "speedup"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("figure 1 output missing %q:\n%s", want, b.String())
		}
	}
}

func TestSchedulerAblation(t *testing.T) {
	var b strings.Builder
	if err := SchedulerAblation(context.Background(), smallCG(), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "row-major") {
		t.Error("ablation output incomplete")
	}
}

func TestSuperpageExperiment(t *testing.T) {
	var b strings.Builder
	if err := SuperpageExperiment(context.Background(), 256, 2, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "TLB misses") {
		t.Error("superpage output incomplete")
	}
}

func TestIPCExperiment(t *testing.T) {
	var b strings.Builder
	if err := IPCExperiment(context.Background(), 4, 32, 2, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Impulse gather") {
		t.Error("IPC output incomplete")
	}
}

func TestPrefetchBufferSweep(t *testing.T) {
	var b strings.Builder
	if err := PrefetchBufferSweep(context.Background(), []uint64{256, 2048}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "SRAM hits") {
		t.Error("sweep output incomplete")
	}
}

func TestGatherStrideSweep(t *testing.T) {
	var b strings.Builder
	if err := GatherStrideSweep(context.Background(), []int{1, 8}, 2048, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "controller prefetch") {
		t.Error("stride sweep output incomplete")
	}
}

func TestCholeskyExperiment(t *testing.T) {
	var b strings.Builder
	if err := CholeskyExperiment(context.Background(), 64, 16, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Cholesky") || !strings.Contains(b.String(), "Impulse remap") {
		t.Error("cholesky output incomplete")
	}
}

func TestSparkExperiment(t *testing.T) {
	var b strings.Builder
	if err := SparkExperiment(context.Background(), 30, 30, 2, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Spark98") {
		t.Error("spark output incomplete")
	}
}

func TestSuperscalarExperiment(t *testing.T) {
	var b strings.Builder
	if err := SuperscalarExperiment(context.Background(), smallCG(), []uint64{1, 4}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "width 4") || !strings.Contains(b.String(), "speedup") {
		t.Error("superscalar output incomplete")
	}
}

func TestDBExperiment(t *testing.T) {
	var b strings.Builder
	p := workloads.DBParams{Records: 2048, RecordBytes: 64, FieldOffset: 16}
	if err := DBExperiment(context.Background(), p, 8, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Database scans") {
		t.Error("db output incomplete")
	}
}

func TestRandomGatherCheck(t *testing.T) {
	n, err := RandomGatherCheck(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no elements verified")
	}
}

func TestControllerFor(t *testing.T) {
	if controllerFor(false, 0) != 0 {
		t.Error("conventional standard cell should use conventional controller")
	}
	if controllerFor(true, 0) == 0 || controllerFor(false, 1) == 0 {
		t.Error("remapping or MC prefetch requires Impulse controller")
	}
}

func TestPagePolicyAblation(t *testing.T) {
	var b strings.Builder
	if err := PagePolicyAblation(context.Background(), smallCG(), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "closed-page") {
		t.Error("policy ablation output incomplete")
	}
}

func TestCacheGeometrySweep(t *testing.T) {
	var b strings.Builder
	if err := CacheGeometrySweep(context.Background(), smallCG(), []uint64{128 << 10, 256 << 10}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "L2=256K") {
		t.Error("geometry sweep output incomplete")
	}
}
