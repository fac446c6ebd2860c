package randx

import "testing"

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("identical seeds diverged")
		}
	}
}

func TestSplitIsStableAndIndependent(t *testing.T) {
	a := New(7).Split("workers")
	b := New(7).Split("workers")
	c := New(7).Split("tasks")
	var sameAB, sameAC int
	for i := 0; i < 64; i++ {
		x, y, z := a.Float64(), b.Float64(), c.Float64()
		if x == y {
			sameAB++
		}
		if x == z {
			sameAC++
		}
	}
	if sameAB != 64 {
		t.Errorf("Split not stable: only %d/64 draws equal", sameAB)
	}
	if sameAC > 2 {
		t.Errorf("Split streams for different labels correlate: %d/64 equal", sameAC)
	}
}

func TestSplitIndexStable(t *testing.T) {
	if New(1).SplitIndex(3).Float64() != New(1).SplitIndex(3).Float64() {
		t.Fatal("SplitIndex not stable")
	}
}

// TestSplitOrderIndependent pins the documented contract: deriving a
// sub-stream is a pure function of (parent stream, label), so neither
// draws from the parent nor sibling derivations in any order can change
// what a label names.
func TestSplitOrderIndependent(t *testing.T) {
	draws := func(g *RNG) [8]float64 {
		var out [8]float64
		for i := range out {
			out[i] = g.Float64()
		}
		return out
	}

	// Derivation order must not matter.
	p1 := New(7)
	a1 := p1.Split("a")
	b1 := p1.Split("b")
	p2 := New(7)
	b2 := p2.Split("b")
	a2 := p2.Split("a")
	if draws(a1) != draws(a2) || draws(b1) != draws(b2) {
		t.Fatal("sibling derivation order changed the derived streams")
	}

	// Draws from the parent must not matter either.
	p3 := New(7)
	p3.Float64()
	p3.Intn(10)
	if draws(p3.Split("a")) != draws(New(7).Split("a")) {
		t.Fatal("consuming parent randomness changed the derived stream")
	}

	// SplitIndex shares the contract.
	p4 := New(7)
	x := draws(p4.SplitIndex(5))
	p4.Normal(0, 1)
	if draws(p4.SplitIndex(5)) != x {
		t.Fatal("SplitIndex consumed parent randomness")
	}
}

// TestSplitNested checks that nested derivations keep distinct identities:
// New(s).Split("a").Split("b") differs from New(s).Split("b").Split("a")
// and from New(s).Split("ab").
func TestSplitNested(t *testing.T) {
	ab := New(3).Split("a").Split("b")
	ba := New(3).Split("b").Split("a")
	flat := New(3).Split("ab")
	x, y, z := ab.Float64(), ba.Float64(), flat.Float64()
	if x == y || x == z || y == z {
		t.Fatalf("nested split streams collide: %v %v %v", x, y, z)
	}
}

func TestUniformBounds(t *testing.T) {
	g := New(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 4)
		if v < 2 || v >= 4 {
			t.Fatalf("Uniform(2,4) = %v out of range", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	g := New(5)
	for i := 0; i < 1000; i++ {
		if v := g.LogNormal(1, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestSample(t *testing.T) {
	g := New(11)
	got := g.Sample(10, 4)
	if len(got) != 4 {
		t.Fatalf("Sample returned %d items, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("Sample value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("Sample returned duplicate %d", v)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("Sample(3, 5) did not panic")
		}
	}()
	g.Sample(3, 5)
}
