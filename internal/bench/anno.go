package bench

import (
	"fmt"
	"strings"

	"repro/internal/anno"
	"repro/internal/anno/envelope"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/jit"
	"repro/internal/target"
)

// AnnoReport tracks the annotation-container trajectory: the encoded size of
// each corpus kernel's annotations per writer version, the negotiation
// outcome of deploying the current writer's streams, and the fallback
// behavior of a deliberately unreadable stream from the future.
//
// The report is recorded in the results artifact (the "anno" section) but
// never gated by the regression comparison: its numbers change whenever the
// annotation schema evolves, which is exactly when churning the committed
// baseline would be noise. The
// correctness side of the same facts is gated elsewhere, by the golden
// corpus test (go test ./internal/anno/ -run TestCorpus).
type AnnoReport struct {
	// WriterVersion is the newest schema version the toolchain emits.
	WriterVersion uint32 `json:"writer_version"`
	// ContainerVersion is the envelope container layout version.
	ContainerVersion uint32    `json:"container_version"`
	Rows             []AnnoRow `json:"rows"`
	// SyntheticFallbacks is the number of annotation sections of the
	// synthetic version-99 stream that degraded to online-only compilation
	// on deploy (at least 1 by construction — the stream exists to pin the
	// fallback path).
	SyntheticFallbacks int `json:"synthetic_fallbacks"`
}

// AnnoRow is the annotation accounting of one corpus kernel.
type AnnoRow struct {
	Kernel string `json:"kernel"`
	// V0Bytes and V1Bytes are the total annotation payload bytes of the
	// module at each writer version; the delta is the envelope overhead
	// plus the v1-only metadata.
	V0Bytes int `json:"v0_bytes"`
	V1Bytes int `json:"v1_bytes"`
	// Fallbacks counts sections that degraded when deploying the v1 stream
	// with the current reader (0 unless reader and writer have diverged).
	Fallbacks int `json:"fallbacks"`
}

// RunAnno measures the annotation-version trajectory over the corpus
// kernels and the synthetic future stream.
func RunAnno() (*AnnoReport, error) {
	rep := &AnnoReport{WriterVersion: anno.CurrentVersion, ContainerVersion: envelope.ContainerVersion}
	tgt, err := target.Lookup(target.X86SSE)
	if err != nil {
		return nil, err
	}
	for _, kernel := range corpus.Kernels {
		row := AnnoRow{Kernel: kernel}
		for _, version := range []uint32{anno.V0, anno.V1} {
			res, _, err := core.CompileKernel(kernel, core.OfflineOptions{AnnotationVersion: version})
			if err != nil {
				return nil, err
			}
			if version == anno.V0 {
				row.V0Bytes = res.AnnotationBytes
			} else {
				row.V1Bytes = res.AnnotationBytes
				img, err := core.BuildImage(res.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
				if err != nil {
					return nil, err
				}
				row.Fallbacks = img.AnnotationFallbacks
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	synthetic, err := corpus.Generate(corpus.SyntheticKernel, corpus.SyntheticVersion)
	if err != nil {
		return nil, err
	}
	img, err := core.BuildImage(synthetic, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
	if err != nil {
		return nil, err
	}
	rep.SyntheticFallbacks = img.AnnotationFallbacks
	return rep, nil
}

// String renders the report as a table.
func (r *AnnoReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Annotation container trajectory (writer v%d, container v%d)\n",
		r.WriterVersion, r.ContainerVersion)
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "kernel", "v0 bytes", "v1 bytes", "fallbacks")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %10d\n", row.Kernel, row.V0Bytes, row.V1Bytes, row.Fallbacks)
	}
	fmt.Fprintf(&b, "synthetic v%d stream: %d section(s) degraded to online-only compilation\n",
		corpus.SyntheticVersion, r.SyntheticFallbacks)
	return b.String()
}
