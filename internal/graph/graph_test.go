package graph

import (
	"math/rand"
	"testing"
)

// cutWeight computes the weight of the cut induced by side directly.
func cutWeight(g *Graph, side []bool) int64 {
	var w int64
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if side[u] != side[v] {
				w += g.Weight(u, v)
			}
		}
	}
	return w
}

// bruteMinCut enumerates all proper 2-partitions.
func bruteMinCut(g *Graph) int64 {
	n := g.n
	best := int64(-1)
	for mask := 1; mask < (1<<n)-1; mask++ {
		side := make([]bool, n)
		for i := 0; i < n; i++ {
			side[i] = mask&(1<<i) != 0
		}
		w := cutWeight(g, side)
		if best < 0 || w < best {
			best = w
		}
	}
	return best
}

func properSide(side []bool, n int) bool {
	trues := 0
	for _, b := range side {
		if b {
			trues++
		}
	}
	return trues > 0 && trues < n
}

func TestGlobalMinCutTriangle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	w, side := g.GlobalMinCut()
	if w != 2 {
		t.Errorf("min cut = %d, want 2 (isolate vertex 2)", w)
	}
	if !properSide(side, 3) {
		t.Errorf("side %v not a proper partition", side)
	}
	if cutWeight(g, side) != w {
		t.Errorf("side weight %d != reported %d", cutWeight(g, side), w)
	}
}

func TestGlobalMinCutDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 7)
	w, side := g.GlobalMinCut()
	if w != 0 {
		t.Errorf("disconnected min cut = %d, want 0", w)
	}
	if side[0] != side[1] || side[2] != side[3] || side[0] == side[2] {
		t.Errorf("side %v should separate the components", side)
	}
}

func TestGlobalMinCutSmallGraphs(t *testing.T) {
	g := New(1)
	if w, side := g.GlobalMinCut(); w != 0 || side != nil {
		t.Errorf("single vertex: (%d, %v)", w, side)
	}
	g2 := New(2)
	g2.AddEdge(0, 1, 9)
	w, side := g2.GlobalMinCut()
	if w != 9 || !properSide(side, 2) {
		t.Errorf("two vertices: (%d, %v)", w, side)
	}
}

func TestGlobalMinCutAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(6)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) > 0 {
					g.AddEdge(u, v, int64(rng.Intn(10)))
				}
			}
		}
		want := bruteMinCut(g)
		got, side := g.GlobalMinCut()
		if got != want {
			t.Fatalf("trial %d (n=%d): GlobalMinCut = %d, brute force = %d", trial, n, got, want)
		}
		if !properSide(side, n) {
			t.Fatalf("trial %d: improper side %v", trial, side)
		}
		if cutWeight(g, side) != got {
			t.Fatalf("trial %d: side weight %d != reported %d", trial, cutWeight(g, side), got)
		}
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0, 5) // self-loop ignored
	if g.Weight(0, 0) != 0 {
		t.Errorf("self-loop stored")
	}
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3)
	if g.Weight(0, 1) != 5 || g.Weight(1, 0) != 5 {
		t.Errorf("parallel edges should accumulate: %d", g.Weight(0, 1))
	}
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 2, 1) },
		func() { g.AddEdge(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid AddEdge did not panic")
				}
			}()
			fn()
		}()
	}
}
