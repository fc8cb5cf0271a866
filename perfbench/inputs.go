package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"repro/internal/sparse"
)

// Inputs are everything a run feeds the program, all derived from the seed:
// the graph, the source lists and the write batches. The program sees only
// these generated values, never the seed.
type Inputs struct {
	Graph *sparse.CSR[float64] // undirected, no self-loops, weights 1
	Hash  uint64               // FNV-64a of the CSR structure
	// Sources holds Graph500 search keys: uniform among vertices with at
	// least one edge.
	Sources []int
	// Batches are the write-mix mutations in send order. Batch k commits
	// epoch k+1; each inserts and deletes the same number of undirected
	// edges, so nnz stays constant.
	Batches []Batch
	// Temporal is the benchmark's own copy of the graph at every epoch the
	// batches produce, used by the checker.
	Temporal *TemporalGraph
}

// Batch is one /mutate body: mirrored inserts of absent edges and mirrored
// deletes of present ones.
type Batch struct {
	Rows    []int     `json:"rows"`
	Cols    []int     `json:"cols"`
	Vals    []float64 `json:"vals"`
	DelRows []int     `json:"del_rows"`
	DelCols []int     `json:"del_cols"`
}

// Input sizes. The graph is Graph500's R-MAT at scale 14 and edge factor 8.
const (
	edgeFactor   = 8
	numSources   = 1024
	graph500Keys = 64  // sources of the traced run's BFS probes and TEPS
	batchEdges   = 128 // undirected inserts and deletes per write batch
	writerRate   = 20  // write batches per second
	defaultScale = 14
	batchesSpare = 16 // batches beyond rate*seconds, for warm-ups and slack
)

// Random streams derived from the seed, besides R-MAT's own (the graph is
// sparse.RMAT(seed), as `gbserve -graph g=rmat:14:8:<seed>` generates it).
const (
	streamSources = iota + 1
	streamBatches
	streamClients // + client index
)

// subSeed derives an independent seed for one stream (splitmix64), so
// neighbouring seeds share no stream.
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// MakeInputs generates the run's inputs from seed. nBatches write batches
// are generated (0 for workloads that do not write).
func MakeInputs(seed int64, scale, nBatches int) (*Inputs, error) {
	raw, err := sparse.RMAT[float64](scale, edgeFactor, seed)
	if err != nil {
		return nil, fmt.Errorf("rmat: %w", err)
	}
	g := undirected(raw)
	in := &Inputs{Graph: g, Hash: hashCSR(g)}
	in.Sources, err = graph500Sources(g, numSources, rand.New(rand.NewSource(subSeed(seed, streamSources))))
	if err != nil {
		return nil, err
	}
	in.Batches = makeBatches(g, nBatches, rand.New(rand.NewSource(subSeed(seed, streamBatches))))
	in.Temporal = newTemporalGraph(g, in.Batches)
	return in, nil
}

// undirected symmetrizes a, drops self-loops and sets every weight to 1.
func undirected(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	n := a.NRows
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if i != j {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	out := sparse.NewCSR[float64](n, n)
	for i := range adj {
		slices.Sort(adj[i])
		adj[i] = slices.Compact(adj[i])
		out.ColIdx = append(out.ColIdx, adj[i]...)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	out.Val = make([]float64, len(out.ColIdx))
	for k := range out.Val {
		out.Val[k] = 1
	}
	return out
}

// hashCSR fingerprints the graph's structure (weights are all 1).
func hashCSR(a *sparse.CSR[float64]) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x int) {
		for k := range b {
			b[k] = byte(uint64(x) >> (8 * k))
		}
		h.Write(b[:])
	}
	put(a.NRows)
	for _, p := range a.RowPtr {
		put(p)
	}
	for _, c := range a.ColIdx {
		put(c)
	}
	return h.Sum64()
}

// graph500Sources draws k search keys uniformly among vertices with at least
// one edge, as Graph500 does (repeats allowed).
func graph500Sources(a *sparse.CSR[float64], k int, rng *rand.Rand) ([]int, error) {
	var live []int
	for i := 0; i < a.NRows; i++ {
		if a.RowNNZ(i) > 0 {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("graph has no edges")
	}
	out := make([]int, k)
	for i := range out {
		out[i] = live[rng.Intn(len(live))]
	}
	return out, nil
}

// edgeKey packs an undirected edge u<v.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// makeBatches generates n write batches against the evolving graph: each
// deletes batchEdges present edges and inserts batchEdges absent ones, both
// uniformly drawn and mirrored.
func makeBatches(a *sparse.CSR[float64], n int, rng *rand.Rand) []Batch {
	if n == 0 {
		return nil
	}
	var edges []uint64
	pos := map[uint64]int{}
	for i := 0; i < a.NRows; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if i < j {
				pos[edgeKey(i, j)] = len(edges)
				edges = append(edges, edgeKey(i, j))
			}
		}
	}
	remove := func(k uint64) {
		p := pos[k]
		last := edges[len(edges)-1]
		edges[p], pos[last] = last, p
		edges = edges[:len(edges)-1]
		delete(pos, k)
	}
	out := make([]Batch, n)
	for b := range out {
		var bt Batch
		for d := 0; d < batchEdges; d++ {
			k := edges[rng.Intn(len(edges))]
			remove(k)
			u, v := int(k>>32), int(k&0xffffffff)
			bt.DelRows = append(bt.DelRows, u, v)
			bt.DelCols = append(bt.DelCols, v, u)
		}
		deleted := map[uint64]bool{}
		for d := 0; d < len(bt.DelRows); d += 2 {
			deleted[edgeKey(bt.DelRows[d], bt.DelCols[d])] = true
		}
		for ins := 0; ins < batchEdges; {
			u, v := rng.Intn(a.NRows), rng.Intn(a.NRows)
			k := edgeKey(u, v)
			if _, present := pos[k]; u == v || present || deleted[k] {
				continue
			}
			pos[k] = len(edges)
			edges = append(edges, k)
			bt.Rows = append(bt.Rows, u, v)
			bt.Cols = append(bt.Cols, v, u)
			bt.Vals = append(bt.Vals, 1, 1)
			ins++
		}
		out[b] = bt
	}
	return out
}

// TemporalGraph is an adjacency list whose arcs carry the epochs they are
// alive in, so the graph of any epoch the batches produce can be walked
// without materializing it.
type TemporalGraph struct {
	N     int
	Start []int // arcs of u are Arcs[Start[u]:Start[u+1]]
	Arcs  []Arc
}

// Arc is a directed arc alive in epochs [From, Until).
type Arc struct {
	To          int32
	From, Until uint32
}

const forever = ^uint32(0)

func newTemporalGraph(a *sparse.CSR[float64], batches []Batch) *TemporalGraph {
	n := a.NRows
	adj := make([][]Arc, n)
	open := map[uint64]int{} // directed arc u->v to its index in adj[u]
	for u := 0; u < n; u++ {
		cols, _ := a.Row(u)
		for _, v := range cols {
			open[uint64(u)<<32|uint64(v)] = len(adj[u])
			adj[u] = append(adj[u], Arc{To: int32(v), Until: forever})
		}
	}
	for b, bt := range batches {
		epoch := uint32(b + 1)
		for k := range bt.DelRows {
			u, v := bt.DelRows[k], bt.DelCols[k]
			key := uint64(u)<<32 | uint64(v)
			adj[u][open[key]].Until = epoch
			delete(open, key)
		}
		for k := range bt.Rows {
			u, v := bt.Rows[k], bt.Cols[k]
			open[uint64(u)<<32|uint64(v)] = len(adj[u])
			adj[u] = append(adj[u], Arc{To: int32(v), From: epoch, Until: forever})
		}
	}
	t := &TemporalGraph{N: n, Start: make([]int, n+1)}
	for u := range adj {
		// Sorted by target so HasArc can binary-search; a re-inserted
		// edge keeps one arc per lifetime.
		slices.SortStableFunc(adj[u], func(a, b Arc) int { return int(a.To) - int(b.To) })
		t.Arcs = append(t.Arcs, adj[u]...)
		t.Start[u+1] = len(t.Arcs)
	}
	return t
}

// Neighbors calls f for every neighbor of u alive at epoch e.
func (t *TemporalGraph) Neighbors(u int, e uint32, f func(v int)) {
	for _, a := range t.Arcs[t.Start[u]:t.Start[u+1]] {
		if a.From <= e && e < a.Until {
			f(int(a.To))
		}
	}
}

// HasArc reports whether arc u->v is alive at epoch e.
func (t *TemporalGraph) HasArc(u, v int, e uint32) bool {
	arcs := t.Arcs[t.Start[u]:t.Start[u+1]]
	i, _ := slices.BinarySearchFunc(arcs, int32(v), func(a Arc, to int32) int { return int(a.To) - int(to) })
	for ; i < len(arcs) && int(arcs[i].To) == v; i++ {
		if arcs[i].From <= e && e < arcs[i].Until {
			return true
		}
	}
	return false
}

// Epochs is the number of epochs the temporal graph covers (0..len(batches)).
func (in *Inputs) Epochs() int { return len(in.Batches) + 1 }
