package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/target"
)

// shareSources is a call chain split over two modules for the link-set
// case; concatenated it is one module.
var shareSources = []string{`
i64 leaf(i32 n) {
    i64 s = 0;
    for (i32 i = 0; i < n; i++) { s = s + ((i64) i) * 3; }
    return s;
}
`, `
i64 mid(i32 n) { return leaf(n) + leaf(n + 1); }
i64 top(i32 n) { return mid(n) * 2 + leaf(n); }
`}

var shareJIT = jit.Options{RegAlloc: jit.RegAllocSplit}

// shareDeployers returns, per deployment mode, a function that builds a
// fresh image (or link set) of the share sources and a way to instantiate
// machines from it. Every machine of one build must share its decoded code.
func shareDeployers(t testing.TB) map[string]func() (func() *Deployment, *sim.Code) {
	t.Helper()
	tgt := target.MustLookup(target.X86SSE)
	whole, err := CompileOffline(shareSources[0]+shareSources[1], OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := CompileOfflineModules(shareSources, []string{"lib", "app"}, OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	image := func(lazy bool) func() (func() *Deployment, *sim.Code) {
		return func() (func() *Deployment, *sim.Code) {
			img, err := BuildImage(whole.Encoded, tgt, shareJIT)
			if lazy {
				img, err = LazyImageFromVerifiedModule(whole.Module, tgt, shareJIT)
			}
			if err != nil {
				t.Fatal(err)
			}
			return img.Instantiate, img.Code()
		}
	}
	return map[string]func() (func() *Deployment, *sim.Code){
		"eager": image(false),
		"lazy":  image(true),
		"linked": func() (func() *Deployment, *sim.Code) {
			units := make([]LinkUnit, len(parts))
			for i, p := range parts {
				img, err := ImageFromModule(p.Module, tgt, shareJIT)
				if err != nil {
					t.Fatal(err)
				}
				units[i] = LinkUnit{Hash: HashModule(p.Encoded), Image: img}
			}
			l, err := NewLinked(units)
			if err != nil {
				t.Fatal(err)
			}
			return l.Instantiate, l.code
		},
	}
}

// TestMachinesShareDecodedCode: however many machines an image or a link
// set instantiates, each function is decoded once, into the one Code they
// all execute.
func TestMachinesShareDecodedCode(t *testing.T) {
	for mode, build := range shareDeployers(t) {
		instantiate, code := build()
		var want sim.Value
		for i := 0; i < 8; i++ {
			d := instantiate()
			if d.Machine.Code() != code {
				t.Fatalf("%s: machine %d decodes into its own code", mode, i)
			}
			got, err := d.Run("top", sim.IntArg(10))
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: machine %d computed %v, machine 0 %v", mode, i, got, want)
			}
		}
		if n := code.Len(); n != 3 {
			t.Errorf("%s: %d functions decoded for 8 machines running 3, want 3", mode, n)
		}
	}
}

// TestSharedFirstRunsConcurrently: first runs on four goroutines of
// machines sharing a fresh image decode, publish and bind call sites
// concurrently; every machine computes the result and cycles of a machine
// that decoded alone. Run under -race.
func TestSharedFirstRunsConcurrently(t *testing.T) {
	for mode, build := range shareDeployers(t) {
		instantiate, _ := build()
		ref := instantiate()
		want, err := ref.Run("top", sim.IntArg(20))
		if err != nil {
			t.Fatal(err)
		}
		wantCycles := ref.Cycles()
		for round := 0; round < 4; round++ {
			instantiate, _ := build()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d := instantiate()
					got, err := d.Run("top", sim.IntArg(20))
					if err != nil || got != want || d.Cycles() != wantCycles {
						t.Errorf("%s: concurrent first run = %v@%d (%v), want %v@%d", mode, got, d.Cycles(), err, want, wantCycles)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestTieredMachineLeavesSharedCodeAlone: a tiered machine profiles and
// fuses private copies, so untiered machines of the same image — one that
// ran beside it and one instantiated after it fused — keep the results,
// cycles and statistics of a machine whose image never saw tiering.
func TestTieredMachineLeavesSharedCodeAlone(t *testing.T) {
	res, k, err := CompileKernel("sum_u8", OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := kernels.NewInputs("sum_u8", 257, 3)
	if err != nil {
		t.Fatal(err)
	}
	tgt := target.MustLookup(target.X86SSE)
	build := func() *Image {
		img, err := BuildImage(res.Encoded, tgt, shareJIT)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	reference, img := build().Instantiate(), build()
	tiered, beside := img.Instantiate(), img.Instantiate()
	tiered.EnableTiering(TierOptions{Policy: profile.Policy{PromoteCalls: 2}})
	run := func(d *Deployment) *KernelRun {
		r, err := d.RunKernel(k, in)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for call := 0; call < 4; call++ {
		want, got := run(reference), run(beside)
		run(tiered)
		if got.Result != want.Result || got.Cycles != want.Cycles {
			t.Fatalf("call %d: untiered sibling %v@%d, reference %v@%d", call, got.Result, got.Cycles, want.Result, want.Cycles)
		}
	}
	if ts := tiered.TierStats(); ts.Promotions == 0 || ts.FusedPairs == 0 {
		t.Fatalf("tiered machine did not promote and fuse: %+v", ts)
	}
	after := img.Instantiate()
	reference.ResetCycles()
	want, got := run(reference), run(after)
	if got.Result != want.Result || got.Cycles != want.Cycles || after.Machine.Stats != reference.Machine.Stats {
		t.Fatalf("sibling instantiated after fusion: %v@%d %+v, reference %v@%d %+v",
			got.Result, got.Cycles, after.Machine.Stats, want.Result, want.Cycles, reference.Machine.Stats)
	}
	if beside.TierStats() != (sim.TierStats{}) {
		t.Error("untiered sibling reports tiering")
	}
}

// TestQuarantineRebuildReusesImageCode: the machine a quarantine rebuild
// makes executes the image's decoded code, not a fresh decode.
func TestQuarantineRebuildReusesImageCode(t *testing.T) {
	res, err := CompileOffline(testSource, OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildImage(res.Encoded, target.MustLookup(target.X86SSE), shareJIT)
	if err != nil {
		t.Fatal(err)
	}
	dep := img.Instantiate()
	if _, err := dep.Run("weight", sim.IntArg(10)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm("sim.panic:error"); err != nil {
		t.Fatal(err)
	}
	_, err = dep.Run("weight", sim.IntArg(10))
	faultinject.Disarm()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run under injected panic = %v, want *PanicError", err)
	}
	old := dep.Machine
	if _, err := dep.Run("weight", sim.IntArg(10)); err != nil {
		t.Fatal(err)
	}
	if dep.Machine == old || dep.GuardStats().Rebuilds != 1 {
		t.Fatal("the quarantined machine was not rebuilt")
	}
	if dep.Machine.Code() != img.Code() || img.Code().Len() != 1 {
		t.Errorf("rebuilt machine decodes into its own code (image code holds %d functions)", img.Code().Len())
	}
}
