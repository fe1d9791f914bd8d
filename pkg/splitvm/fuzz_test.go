package splitvm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cil"
)

// FuzzModulePipeline feeds mutated byte streams through the full untrusted
// path — decode, verify, deploy, run — under a small resource governor. The
// corpus is seeded from the checked-in annotation corpus (real encoded
// modules across every schema version), so mutations explore the decoder
// from valid streams outward. The invariants are the trust boundary's:
// no panic ever escapes to the caller, and a stream that loads and deploys
// can only consume what the governor grants — hostile lengths and runaway
// loops come back as typed errors, never as unbounded allocation.
func FuzzModulePipeline(f *testing.F) {
	dir := filepath.Join("..", "..", "internal", "anno", "testdata", "annocorpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	seeded := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".svbc") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		seeded++
	}
	if seeded == 0 {
		f.Fatal("no corpus seeds found")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := New()
		m, err := eng.Load(data)
		if err != nil {
			return // rejected at the boundary, as hostile input should be
		}
		dep, err := eng.Deploy(m, WithMemLimit(1<<20), WithCache(false))
		if err != nil {
			return
		}
		// Small budgets: whatever survived verification runs governed.
		dep.d.Machine.MaxSteps = 2_000_000
		for _, entry := range m.Methods() {
			sig, err := dep.Signature(entry)
			if err != nil {
				continue
			}
			raw := make([]string, len(sig.Params))
			for i := range raw {
				raw[i] = "7"
			}
			args, err := sig.ParseArgs(raw)
			if err != nil {
				continue // array parameters are not runnable from text
			}
			if _, err := dep.Run(entry, args...); err != nil {
				// Errors are fine — they must just be errors, not panics,
				// and a guest panic recovered by the firewall quarantines
				// the machine without poisoning later entries.
				var pe *PanicError
				if errors.As(err, &pe) && !dep.d.Quarantined() {
					t.Fatalf("recovered panic without quarantine: %v", err)
				}
			} else if used, limit := dep.MemUsed(), dep.MemLimit(); used > limit {
				// A successful run can never have charged past the limit
				// (a failed one may be over by the growth that tripped it).
				t.Fatalf("guest charged %d bytes past its %d-byte limit", used, limit)
			}
		}
	})
}

// FuzzCompileSource feeds arbitrary text to the offline compiler, seeded
// with every kernel and example program. Engine.Compile never panics; what
// it accepts decodes from its own bytes into a module that verifies, and
// re-encodes to exactly those bytes.
func FuzzCompileSource(f *testing.F) {
	for _, src := range exampleSources(f) {
		f.Add(src)
	}
	for _, k := range Kernels() {
		f.Add(k.Source)
	}
	f.Add(genTemplateSource(2))
	f.Fuzz(func(t *testing.T, src string) {
		m, err := New().Compile(src)
		if err != nil {
			return
		}
		enc := m.Encoded()
		mod, err := cil.Decode(enc)
		if err != nil {
			t.Fatalf("accepted module does not decode: %v", err)
		}
		if err := cil.Verify(mod); err != nil {
			t.Fatalf("accepted module does not verify: %v", err)
		}
		if again := cil.Encode(mod); !bytes.Equal(again, enc) {
			t.Fatal("Encode(Decode(Encoded())) differs from Encoded()")
		}
	})
}
