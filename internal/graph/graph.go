// Package graph provides small weighted undirected graphs and the
// Stoer–Wagner global minimum cut behind the query-directed split of the
// paper's §5.2 (which cites Edmonds–Karp [20] for the min cut). Graphs here
// are tiny (one vertex per query atom), so a simple adjacency-matrix
// implementation is appropriate.
package graph

import "fmt"

// Graph is a weighted undirected graph over vertices 0..n-1. Parallel edges
// accumulate weight; self-loops are ignored for cut purposes.
type Graph struct {
	n int
	w [][]int64
}

// New creates a graph with n vertices and no edges.
func New(n int) *Graph {
	g := &Graph{n: n, w: make([][]int64, n)}
	for i := range g.w {
		g.w[i] = make([]int64, n)
	}
	return g
}

// AddEdge adds weight w to the undirected edge {u, v}. Negative weights and
// out-of-range vertices panic: the query graph construction controls both.
func (g *Graph) AddEdge(u, v int, w int64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, g.n))
	}
	if w < 0 {
		panic("graph: negative edge weight")
	}
	if u == v {
		return
	}
	g.w[u][v] += w
	g.w[v][u] += w
}

// Weight returns the weight of edge {u, v} (0 if absent).
func (g *Graph) Weight(u, v int) int64 { return g.w[u][v] }

// GlobalMinCut computes a global minimum cut with the Stoer–Wagner
// algorithm. It returns the cut weight and a side assignment: side[v] is true
// for vertices in one (non-empty, proper) part. For n < 2 it returns (0, nil).
// Disconnected graphs yield weight 0 with a connected-component side.
func (g *Graph) GlobalMinCut() (int64, []bool) {
	if g.n < 2 {
		return 0, nil
	}
	// Work on a copy: vertices are merged during the algorithm.
	n := g.n
	w := make([][]int64, n)
	for i := range w {
		w[i] = append([]int64(nil), g.w[i]...)
	}
	// members[i] = original vertices merged into contracted vertex i.
	members := make([][]int, n)
	for i := range members {
		members[i] = []int{i}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}

	bestWeight := int64(-1)
	var bestSide []int

	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase) starting from active[0].
		inA := make(map[int]bool, len(active))
		weights := make(map[int]int64, len(active))
		order := make([]int, 0, len(active))
		for len(order) < len(active) {
			// Select the most tightly connected vertex not yet in A.
			sel, selW := -1, int64(-1)
			for _, v := range active {
				if inA[v] {
					continue
				}
				if weights[v] > selW {
					sel, selW = v, weights[v]
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for _, v := range active {
				if !inA[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		tt := order[len(order)-1]
		s := order[len(order)-2]
		cutOfPhase := weights[tt]
		if bestWeight < 0 || cutOfPhase < bestWeight {
			bestWeight = cutOfPhase
			bestSide = append([]int(nil), members[tt]...)
		}
		// Merge t into s.
		for _, v := range active {
			if v == s || v == tt {
				continue
			}
			w[s][v] += w[tt][v]
			w[v][s] = w[s][v]
		}
		members[s] = append(members[s], members[tt]...)
		// Remove t from the active list.
		next := active[:0]
		for _, v := range active {
			if v != tt {
				next = append(next, v)
			}
		}
		active = next
	}

	side := make([]bool, g.n)
	for _, v := range bestSide {
		side[v] = true
	}
	return bestWeight, side
}
