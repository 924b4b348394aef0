package main

import (
	"strconv"
	"testing"
)

func TestStreamDigestPinsSeed(t *testing.T) {
	for _, w := range workloads(1) {
		t.Run(w.name, func(t *testing.T) {
			a := newStream(w, 1).digest()
			b := newStream(w, 1).digest()
			if a != b {
				t.Fatalf("same seed, digests %s and %s", a, b)
			}
			w2, err := findWorkload(2, w.name)
			if err != nil {
				t.Fatal(err)
			}
			if c := newStream(w2, 2).digest(); c == a {
				t.Fatalf("seeds 1 and 2 share digest %s", a)
			}
		})
	}
}

func TestStreamOpsDeriveFromSeedAndIndex(t *testing.T) {
	for _, w := range workloads(7) {
		s1, s2 := newStream(w, 7), newStream(w, 7)
		// Generation order must not matter: s2 is asked back to front.
		ops := make([]op, 64)
		for i := int64(63); i >= 0; i-- {
			ops[i] = s2.op(i)
		}
		for i := int64(0); i < 64; i++ {
			if a := s1.op(i); !sameOp(a, ops[i]) {
				t.Fatalf("%s op %d differs between streams: %+v vs %+v", w.name, i, a, ops[i])
			}
		}
		o := s1.op(3)
		g1, g2 := s1.graph(o.keys[0].graph), s2.graph(o.keys[0].graph)
		if g1.fp != g2.fp || g1.n != g2.n {
			t.Fatalf("%s graph %d differs between streams", w.name, o.keys[0].graph)
		}
	}
}

func sameOp(a, b op) bool {
	if a.idx != b.idx || a.route != b.route || len(a.keys) != len(b.keys) {
		return false
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] {
			return false
		}
	}
	return true
}

func TestWarmupCoversHotPool(t *testing.T) {
	w, err := findWorkload(1, "hot-binary")
	if err != nil {
		t.Fatal(err)
	}
	warm := map[key]bool{}
	for _, o := range w.warmup() {
		warm[o.keys[0]] = true
	}
	st := newStream(w, 1)
	for i := int64(0); i < 1000; i++ {
		if k := st.op(i).keys[0]; !warm[k] {
			t.Fatalf("op %d asks %+v, which the warm-up never cached", i, k)
		}
	}
}

func TestBlocksOfferTheSameMix(t *testing.T) {
	hot, err := findWorkload(3, "hot-binary")
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(hot, 3)
	for b := int64(0); b < 3; b++ {
		const n = int64(hotKeys)
		seen := map[key]bool{}
		for i := b * n; i < (b+1)*n; i++ {
			seen[st.op(i).keys[0]] = true
		}
		if len(seen) != hotKeys {
			t.Fatalf("hot-binary block %d asks %d distinct keys, want %d", b, len(seen), hotKeys)
		}
	}
	for b := uint64(0); b < 3; b++ {
		mix := map[string]int{}
		for id := b * coldBlock; id < (b+1)*coldBlock; id++ {
			k := coldKey(3, id)
			if coldShape(3, id).tree != (k.solver != "bandwidth") {
				t.Fatalf("cold-solve graph %d: shape and solver %q disagree", id, k.solver)
			}
			mix[k.solver+"@"+strconv.FormatFloat(k.kmult, 'g', -1, 64)]++
		}
		for _, m := range kLadder {
			rung := strconv.FormatFloat(m, 'g', -1, 64)
			if n := mix["bandwidth@"+rung]; n != coldPaths/len(kLadder) {
				t.Fatalf("cold-solve block %d: %d paths at rung %s, want %d", b, n, rung, coldPaths/len(kLadder))
			}
			for _, s := range coldTreeSolvers {
				if n := mix[s+"@"+rung]; n != 1 {
					t.Fatalf("cold-solve block %d: %d trees on %s at rung %s, want 1", b, n, s, rung)
				}
			}
		}
	}
}
