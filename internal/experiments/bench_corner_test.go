package experiments

import "testing"

// The bench-pr8 headline corners as Go benchmarks, so the workload-level
// ratios can be profiled with the standard tooling (-cpuprofile) instead
// of re-deriving them from the imaxbench artifact.

func benchRegLoopCorner(b *testing.B, nocache, notrace bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := benchRegLoop(4, 8, 20_000, nocache, notrace); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegLoopSerialCache(b *testing.B) { benchRegLoopCorner(b, false, true) }
func BenchmarkRegLoopSerialTrace(b *testing.B) { benchRegLoopCorner(b, false, false) }

func benchComputeCorner(b *testing.B, nocache, notrace bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := benchCompute(6, 24, 50_000, nocache, notrace); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeSerialCache(b *testing.B) { benchComputeCorner(b, false, true) }
func BenchmarkComputeSerialTrace(b *testing.B) { benchComputeCorner(b, false, false) }
