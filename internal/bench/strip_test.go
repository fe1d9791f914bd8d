package bench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestStripUngated pins the generic baseline-refresh behavior: non-gated
// sections (anno, the host/compile/tier/serve sections every older
// artifact carries, and anything unknown from the future) disappear, gated
// metrics survive bit-for-bit, and the output is stable. Older artifacts
// still parse and still gate.
func TestStripUngated(t *testing.T) {
	var artifact map[string]any
	gated, err := json.Marshal(sampleResults())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gated, &artifact); err != nil {
		t.Fatal(err)
	}
	artifact["host"] = map[string]any{"Cells": []any{map[string]any{"Kernel": "sum_u8", "SimMIPS": 200.0}}}
	artifact["compile"] = map[string]any{"Cells": []any{}, "Parallel": map[string]any{"Speedup": 1.5}}
	artifact["tier"] = map[string]any{"Cells": []any{map[string]any{"FusedPairs": 3}}}
	artifact["serve"] = map[string]any{"WarmFromCache": true, "RouterBackends": 2}
	artifact["anno"] = map[string]any{"writer_version": 1}
	artifact["future_section"] = map[string]any{"tracked": true}
	raw, err := json.Marshal(artifact)
	if err != nil {
		t.Fatal(err)
	}

	// An artifact written before the wall-clock sections were retired
	// parses, and gates against the current schema with nothing new.
	old, err := ParseResults(raw)
	if err != nil {
		t.Fatalf("older artifact rejected: %v", err)
	}
	if rep := Compare(sampleResults(), old, DiffOptions{}); rep.Failed() || rep.New != 0 {
		t.Errorf("older artifact does not gate cleanly (%d new):\n%s", rep.New, rep)
	}

	stripped, err := StripUngated(raw)
	if err != nil {
		t.Fatal(err)
	}
	var kept map[string]json.RawMessage
	if err := json.Unmarshal(stripped, &kept); err != nil {
		t.Fatal(err)
	}
	if _, ok := kept["table1"]; !ok {
		t.Error("gated section table1 was stripped")
	}
	for _, gone := range []string{"host", "compile", "tier", "serve", "anno", "future_section"} {
		if _, ok := kept[gone]; ok {
			t.Errorf("non-gated section %q survived the strip", gone)
		}
	}

	// The gated metrics are unchanged by the strip.
	after, err := ParseResults(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old.Metrics(), after.Metrics()) {
		t.Error("stripping changed the gated metrics")
	}

	// Stripping is idempotent and stable (sorted keys), so refreshed
	// baselines only churn when gated numbers move.
	again, err := StripUngated(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(stripped) {
		t.Error("StripUngated is not idempotent")
	}
}

// TestGatedSectionsCoverMetrics guards the invariant the generic strip
// rests on: every metric the gate compares lives under a gated section key,
// so stripping can never silently drop a gated metric.
func TestGatedSectionsCoverMetrics(t *testing.T) {
	full := &Results{
		Table1:   &Table1Report{Rows: []Table1Row{{Kernel: "k", Cells: []Table1Cell{{Target: "t"}}}}},
		Figure1:  &Figure1Report{Rows: []Figure1Row{{Kernel: "k"}}},
		RegAlloc: &RegAllocReport{Points: []RegAllocPoint{{IntRegs: 4}}},
		CodeSize: &CodeSizeReport{Rows: []CodeSizeRow{{Module: "m"}}},
		Hetero:   &HeteroReport{},
	}
	gated := map[string]bool{}
	for _, s := range gatedSections {
		gated[s] = true
	}
	for _, m := range full.Metrics() {
		section := m.Name[:strings.Index(m.Name, "/")]
		if !gated[section] {
			t.Errorf("metric %q lives under non-gated section %q", m.Name, section)
		}
	}
}

// TestHostSectionIsTrackedNotGated pins the compatibility contract of the
// host-throughput section older artifacts carry: it parses, never becomes
// gated metrics, and gates cleanly against an artifact without it.
func TestHostSectionIsTrackedNotGated(t *testing.T) {
	checkRetiredSection(t, "host", map[string]any{
		"Options": map[string]any{"N": 256, "Runs": 3},
		"Cells": []any{map[string]any{
			"Kernel": "saxpy_fp", "Target": "x86-sse", "Runs": 3,
			"SimInstructions": 1000, "SimCycles": 4000,
			"HostNanosPerRun": 12345, "SimMIPS": 100.0,
		}},
	})
}

// TestTierSectionIsTrackedNotGated is the same contract for the tier
// section.
func TestTierSectionIsTrackedNotGated(t *testing.T) {
	checkRetiredSection(t, "tier", map[string]any{
		"Options": map[string]any{"N": 256, "Runs": 3, "PromoteCalls": 2},
		"Cells": []any{map[string]any{
			"Kernel": "saxpy_fp", "Target": "x86-sse",
			"SimCycles": 4000, "ColdPromoteCalls": 2, "WarmPromoteCalls": 1,
			"Tier1NanosPerRun": 12345, "Tier2NanosPerRun": 11000, "Tier2Speedup": 1.12,
			"FusedPairs": 3, "ReallocDiverged": 1, "ProfileBytes": 42,
		}},
	})
}

// checkRetiredSection adds a section of a retired experiment to an
// otherwise current artifact and checks that it is ignored by the gate.
func checkRetiredSection(t *testing.T, key string, section map[string]any) {
	t.Helper()
	baseline := sampleResults()
	var artifact map[string]any
	data, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &artifact); err != nil {
		t.Fatal(err)
	}
	artifact[key] = section
	if data, err = json.Marshal(artifact); err != nil {
		t.Fatal(err)
	}
	current, err := ParseResults(data)
	if err != nil {
		t.Fatalf("artifact with a %s section rejected: %v", key, err)
	}
	for _, m := range current.Metrics() {
		if strings.HasPrefix(m.Name, key+"/") {
			t.Errorf("%s metric %q leaked into the gated metric set", key, m.Name)
		}
	}
	if got, want := len(current.Metrics()), len(baseline.Metrics()); got != want {
		t.Errorf("%s section changed the gated metric count: %d != %d", key, got, want)
	}
	rep := Compare(baseline, current, DiffOptions{})
	if rep.Failed() {
		t.Fatalf("%s section must not fail the gate:\n%s", key, rep)
	}
	if rep.New != 0 {
		t.Errorf("%s section produced %d unexpected new gated metrics", key, rep.New)
	}
}
