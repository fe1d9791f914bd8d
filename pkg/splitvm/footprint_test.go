package splitvm

import (
	"runtime"
	"testing"

	"repro/internal/target"
)

// idleDeploymentBytes returns the heap that each of n deployments of one
// cached image retains once it has run and gone idle: its machine's
// simulated heap and statistics, plus whatever else a deployment keeps per
// machine. One deployment runs before the measurement,
// so what the image itself holds (module, native code, decoded code) is
// not counted.
func idleDeploymentBytes(tb testing.TB, n int) float64 {
	tb.Helper()
	eng := New()
	m, err := eng.Compile(genTemplateSource(16))
	if err != nil {
		tb.Fatal(err)
	}
	run := func() *Deployment {
		dp, err := eng.Deploy(m, WithTarget(target.X86SSE))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := dp.Run("m15", IntArg(4)); err != nil {
			tb.Fatal(err)
		}
		return dp
	}
	run()
	deps := make([]*Deployment, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range deps {
		deps[i] = run()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(deps)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// idleDeploymentBytesPerMachineDecode is what an idle deployment of the
// generated 16-method module retained (go1.24, amd64) while every machine
// decoded the code it ran for itself: 14,093 B.
const idleDeploymentBytesPerMachineDecode = 14093

// TestIdleDeploymentFootprint: a deployment that ran once and went idle
// keeps its heap and statistics; the image keeps the code and lends the
// frames. It retains at most half of what it did when each machine held a
// decoded copy.
func TestIdleDeploymentFootprint(t *testing.T) {
	got := idleDeploymentBytes(t, 512)
	t.Logf("%.0f B per idle deployment", got)
	if got > idleDeploymentBytesPerMachineDecode/2 {
		t.Errorf("an idle deployment retains %.0f B, want <= %d", got, idleDeploymentBytesPerMachineDecode/2)
	}
}

// BenchmarkIdleDeployments reports the heap each of 512 idle deployments
// of one image retains, in B/deployment.
func BenchmarkIdleDeployments(b *testing.B) {
	var per float64
	for i := 0; i < b.N; i++ {
		per = idleDeploymentBytes(b, 512)
	}
	b.ReportMetric(per, "B/deployment")
}
