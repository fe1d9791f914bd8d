package main

import (
	"fmt"
	"io"
	"reflect"
)

// selfCheck is the determinism self-check behind -check: the same seed must
// give a byte-identical program set and a different seed a different one,
// and two back-to-back censuses must agree on every exact count. name
// restricts the census to one workload; empty checks all four.
func selfCheck(out io.Writer, e *env, name string) error {
	a, b := setHash(genCompileSet(e.seed, e.scale)), setHash(genCompileSet(e.seed, e.scale))
	other := setHash(genCompileSet(e.seed+1, e.scale))
	fmt.Fprintf(out, "program set seed %d: %s\nprogram set seed %d: %s\n", e.seed, a, e.seed+1, other)
	if a != b {
		return fmt.Errorf("seed %d generated two different program sets: %s and %s", e.seed, a, b)
	}
	if a == other {
		return fmt.Errorf("seeds %d and %d generated the same program set %s", e.seed, e.seed+1, a)
	}
	for _, w := range catalogue {
		if name != "" && w.name != name {
			continue
		}
		var passes [2]map[string]float64
		for i := range passes {
			counts, err := exactCounts(w, e)
			if err != nil {
				return fmt.Errorf("%s: pass %d: %w", w.name, i+1, err)
			}
			passes[i] = counts
		}
		if !reflect.DeepEqual(passes[0], passes[1]) {
			for _, k := range sortedKeys(passes[0]) {
				if passes[0][k] != passes[1][k] {
					fmt.Fprintf(out, "%s: %s drifted: %v then %v\n", w.name, k, passes[0][k], passes[1][k])
				}
			}
			return fmt.Errorf("%s: exact counts differ between two passes of seed %d", w.name, e.seed)
		}
		fmt.Fprintf(out, "%s: %d exact counts repeat\n", w.name, len(passes[0]))
		for _, k := range sortedKeys(passes[0]) {
			fmt.Fprintf(out, "  %-28s %v\n", k, passes[0][k])
		}
	}
	return nil
}

// exactCounts is one pass over everything that must repeat: the census and
// the counts the layer probes take of the workload's own programs.
func exactCounts(w *workload, e *env) (map[string]float64, error) {
	counts, st, _, failed, err := census(w, e)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if failed > 0 {
		return nil, fmt.Errorf("%d census operations failed", failed)
	}
	rep, err := w.layers(e, st, nil)
	if err != nil {
		return nil, err
	}
	for name, v := range rep.exact {
		counts[name] = v
	}
	return counts, nil
}
