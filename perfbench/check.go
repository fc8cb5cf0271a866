package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
)

// The checker holds the benchmark's own serial references, computed from its
// own copy of the graph (TemporalGraph) at the epoch an answer was served
// from. Every check returns "" when the answer is right, or the reason it is
// not.
//
// Expected answers:
//   - BFS: levels exact; when parents are present they must form a BFS tree
//     (each reached non-source vertex's parent is a neighbor one level up).
//   - SSSP: distances exact (every weight is 1, so they are BFS hop counts);
//     an unreachable vertex may be encoded as null, -1 or an Inf string.
//   - CC: labels exact (minimum vertex id of the component) and the
//     component count.
//   - PageRank: ‖r − PR‖₁ ≤ prTolerance/(1−d), certified by the fixed-point
//     residual ‖F(r) − r‖₁ ≤ prTolerance of the power-iteration map F the
//     library iterates (F is a d-contraction in L1).
type Checker struct {
	g *TemporalGraph

	// Reference BFS levels are kept as hashes, one per epoch-0 source, so
	// many sources cost little memory; later epochs (write-mix) are
	// recomputed per answer so nothing grows with the run.
	mu  sync.Mutex
	bfs map[bfsKey]uint64
	cc  map[uint32][]int64

	triOnce sync.Once
	tri     int64
}

type bfsKey struct {
	epoch uint32
	src   int
}

// PageRank parameters the service defaults to, and the residual bound.
const (
	prDamping   = 0.85
	prTolerance = 1e-5
)

// Wrong-answer reasons. An op whose answer is one of these makes the run's
// "correct" false; every other failure reason (transport, status, empty or
// undecodable body) only counts as a failed op.
var wrongReasons = map[string]bool{
	"wrong_length": true, "wrong_levels": true, "wrong_parents": true,
	"wrong_dist": true, "wrong_labels": true, "wrong_components": true,
	"wrong_ranks": true, "wrong_triangles": true,
}

func NewChecker(g *TemporalGraph) *Checker {
	return &Checker{g: g, bfs: map[bfsKey]uint64{}, cc: map[uint32][]int64{}}
}

// Levels computes the reference BFS levels (−1 unreached) from src at epoch.
func (c *Checker) Levels(epoch uint32, src int) []int64 {
	lv := make([]int64, c.g.N)
	for i := range lv {
		lv[i] = -1
	}
	lv[src] = 0
	frontier := []int{src}
	for depth := int64(1); len(frontier) > 0; depth++ {
		var next []int
		for _, u := range frontier {
			c.g.Neighbors(u, epoch, func(v int) {
				if lv[v] < 0 {
					lv[v] = depth
					next = append(next, v)
				}
			})
		}
		frontier = next
	}
	return lv
}

// levelHash fingerprints a level vector.
func levelHash(lv []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range lv {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// Prepare caches the reference level hash of each epoch-0 source.
func (c *Checker) Prepare(sources []int) {
	for _, s := range sources {
		c.refHash(0, s)
	}
}

// refHash is the reference levels' hash, cached at epoch 0.
func (c *Checker) refHash(epoch uint32, src int) uint64 {
	k := bfsKey{epoch, src}
	c.mu.Lock()
	h, ok := c.bfs[k]
	c.mu.Unlock()
	if ok {
		return h
	}
	h = levelHash(c.Levels(epoch, src))
	if epoch == 0 {
		c.mu.Lock()
		c.bfs[k] = h
		c.mu.Unlock()
	}
	return h
}

// Labels returns the reference component labels at epoch, cached.
func (c *Checker) Labels(epoch uint32) []int64 {
	c.mu.Lock()
	lb, ok := c.cc[epoch]
	c.mu.Unlock()
	if ok {
		return lb
	}
	lb = make([]int64, c.g.N)
	for i := range lb {
		lb[i] = -1
	}
	// Visiting roots in increasing order labels each component by its
	// minimum vertex.
	for r := 0; r < c.g.N; r++ {
		if lb[r] >= 0 {
			continue
		}
		lb[r] = int64(r)
		stack := []int{r}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c.g.Neighbors(u, epoch, func(v int) {
				if lb[v] < 0 {
					lb[v] = int64(r)
					stack = append(stack, v)
				}
			})
		}
	}
	if epoch == 0 {
		c.mu.Lock()
		c.cc[epoch] = lb
		c.mu.Unlock()
	}
	return lb
}

// CheckBFS checks BFS levels (and parents, when non-nil) from src.
func (c *Checker) CheckBFS(epoch uint32, src int, levels, parents []int64) string {
	if len(levels) != c.g.N || (parents != nil && len(parents) != c.g.N) {
		return "wrong_length"
	}
	if levelHash(levels) != c.refHash(epoch, src) {
		return "wrong_levels"
	}
	if parents == nil {
		return ""
	}
	// The levels are the reference's, so the tree check can read them.
	for v, p := range parents {
		switch {
		case v == src || levels[v] < 0:
			if p != -1 && p != int64(v) {
				return "wrong_parents"
			}
		case p < 0 || int(p) >= len(levels) || levels[p] != levels[v]-1 || !c.g.HasArc(int(p), v, epoch):
			return "wrong_parents"
		}
	}
	return ""
}

// CheckSSSP checks a distance vector from src; entries are raw JSON so the
// unreachable encoding is not fixed. With unit weights the distances are
// the BFS levels.
func (c *Checker) CheckSSSP(epoch uint32, src int, dist []json.RawMessage) string {
	if len(dist) != c.g.N {
		return "wrong_length"
	}
	lv := make([]int64, len(dist))
	for v, raw := range dist {
		d, ok := parseDist(raw)
		switch {
		case !ok:
			return "wrong_dist"
		case math.IsInf(d, 1):
			lv[v] = -1
		case d != math.Trunc(d) || d < 0:
			return "wrong_dist"
		default:
			lv[v] = int64(d)
		}
	}
	if levelHash(lv) != c.refHash(epoch, src) {
		return "wrong_dist"
	}
	return ""
}

// parseDist reads one distance: a number, or null / -1 / an Inf string for
// unreachable (returned as +Inf).
func parseDist(raw json.RawMessage) (float64, bool) {
	s := string(raw)
	switch s {
	case "null", `"+Inf"`, `"Inf"`, `"inf"`, `"Infinity"`, `"+Infinity"`:
		return math.Inf(1), true
	}
	d, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	if d == -1 {
		return math.Inf(1), true
	}
	return d, true
}

// CheckCC checks component labels and the component count.
func (c *Checker) CheckCC(epoch uint32, labels []int64, components int) string {
	ref := c.Labels(epoch)
	if len(labels) != len(ref) {
		return "wrong_length"
	}
	count := 0
	for v := range ref {
		if labels[v] != ref[v] {
			return "wrong_labels"
		}
		if ref[v] == int64(v) {
			count++
		}
	}
	if components != count {
		return "wrong_components"
	}
	return ""
}

// CheckPageRank certifies ranks by the residual of one power-iteration step
// on the epoch's graph: F(r) = (1−d)/n + d·(dangling(r)/n + Σ_{u→v} r_u/deg_u).
func (c *Checker) CheckPageRank(epoch uint32, ranks []float64) string {
	n := c.g.N
	if len(ranks) != n {
		return "wrong_length"
	}
	next := make([]float64, n)
	dangling := 0.0
	for u := 0; u < n; u++ {
		if math.IsNaN(ranks[u]) || math.IsInf(ranks[u], 0) || ranks[u] < 0 {
			return "wrong_ranks"
		}
		deg := 0
		c.g.Neighbors(u, epoch, func(int) { deg++ })
		if deg == 0 {
			dangling += ranks[u]
			continue
		}
		share := ranks[u] / float64(deg)
		c.g.Neighbors(u, epoch, func(v int) { next[v] += share })
	}
	base := (1-prDamping)/float64(n) + prDamping*dangling/float64(n)
	res := 0.0
	for v := range next {
		res += math.Abs(base + prDamping*next[v] - ranks[v])
	}
	if !(res <= prTolerance) {
		return "wrong_ranks"
	}
	return ""
}

// ReachedEdges is the Graph500 TEPS numerator of a BFS from src at epoch 0:
// the undirected edges of the traversed component.
func (c *Checker) ReachedEdges(src int) float64 {
	lv := c.Levels(0, src)
	arcs := 0
	for u, l := range lv {
		if l >= 0 {
			c.g.Neighbors(u, 0, func(int) { arcs++ })
		}
	}
	return float64(arcs) / 2
}

// Triangles is the reference triangle count at epoch 0.
func (c *Checker) Triangles() int64 {
	c.triOnce.Do(func() {
		mark := make([]bool, c.g.N)
		for u := 0; u < c.g.N; u++ {
			c.g.Neighbors(u, 0, func(v int) { mark[v] = true })
			c.g.Neighbors(u, 0, func(v int) {
				if v <= u {
					return
				}
				c.g.Neighbors(v, 0, func(w int) {
					if w > v && mark[w] {
						c.tri++
					}
				})
			})
			c.g.Neighbors(u, 0, func(v int) { mark[v] = false })
		}
	})
	return c.tri
}
