package twin

import (
	"context"
	"io"
	"testing"

	"impulse/internal/harness"
)

// BenchmarkTwinPredict measures the analytical tier's answer latency:
// one full prediction (all cells, columnar-ready) per iteration, per
// eligible family at the fast geometry. cmd/benchjson pairs these with
// BenchmarkTwinSimBaseline below and prints the twin-vs-sim speedup.
func BenchmarkTwinPredict(b *testing.B) {
	for _, fam := range Families() {
		b.Run(fam, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Predict(fam, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTwinSimBaseline is the path a twin answer replaces: the same
// family simulated at the same fast geometry from an empty cell memo
// (the cold cost — a warm answer would come from the service's result
// cache anyway, which the twin tier also sits in front of).
func BenchmarkTwinSimBaseline(b *testing.B) {
	defer harness.ResetTraceCache()
	for _, fam := range Families() {
		b.Run(fam, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				harness.ResetTraceCache()
				if err := harness.RunFamily(context.Background(), fam, true, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
