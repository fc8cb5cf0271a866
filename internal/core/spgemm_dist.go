package core

// Distributed SpGEMM: blocked Sparse SUMMA over the 2-D locale grid, after
// Buluç & Gilbert's "Parallel Sparse Matrix-Matrix Multiplication and
// Indexing" (the paper's reference [8]) at CombBLAS-2.0 shape:
//
//   - The inner dimension is swept in band segments. On a square grid the
//     segments are exactly the √P classic SUMMA stages; on a rectangular
//     Pr×Pc grid they are the merged boundaries of A's column bands and B's
//     row bands (≤ Pr+Pc−1 segments, no lcm blow-up), so non-square grids —
//     including the 1×p grids a prime locale count produces — just work.
//   - In stage k every locale (r, c) receives A's panel for the stage's
//     band, tree-broadcast along its processor row, and B's panel broadcast
//     along its processor column: O(team size) messages per panel per stage
//     (comm.TeamBroadcastSparse), never O(nnz), each fault-checked and
//     retried so the chaos machinery applies mid-broadcast.
//   - Local multiplies run the heap/hash Gustavson kernels of
//     spgemm_local.go on the runtime's ScratchPool, switching to the DCSC
//     doubly-compressed walk when a stage panel goes hypersparse.
//   - Stage products fold into a per-locale accumulator with a two-way
//     sorted merge; the strategy place axis (gb.ForceGather /
//     gb.ForceReplicate, auto via the inspector) picks between per-stage
//     broadcasts and prefetching whole panels up front.

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Place-axis reasons for the SUMMA broadcast dispatch.
const (
	// ReasonStageBroadcast: moving each band panel in its own stage keeps
	// every message at panel size and overlaps with the stage multiplies.
	ReasonStageBroadcast = "stage-broadcast"
	// ReasonPanelPrefetch: replicating the row/column panels once up front
	// undercuts the per-stage tree latencies and headers.
	ReasonPanelPrefetch = "panel-prefetch"
)

// logDepth returns ceil(log2(p)) as a float for cost charging.
func logDepth(p int) float64 {
	d := 0.0
	for v := 1; v < p; v <<= 1 {
		d++
	}
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// summaStage is one band segment of the inner-dimension sweep: global
// columns [lo, hi) of A (= rows of B), owned by A's column team ca and B's
// row team rb.
type summaStage struct {
	lo, hi, ca, rb int
}

// summaStages merges A's column-band and B's row-band boundaries into the
// stage list, appending to stages (a reused list, or nil). Both arrays start
// at 0 and end at the shared inner dimension, so every segment lies inside
// exactly one band of each; empty segments (empty bands happen whenever the
// inner dimension is smaller than a grid side) are dropped.
func summaStages(stages []summaStage, aColBands, bRowBands []int) []summaStage {
	ca, rb := 0, 0
	lo := 0
	for ca < len(aColBands)-1 && rb < len(bRowBands)-1 {
		hi := aColBands[ca+1]
		if bRowBands[rb+1] < hi {
			hi = bRowBands[rb+1]
		}
		if hi > lo {
			stages = append(stages, summaStage{lo: lo, hi: hi, ca: ca, rb: rb})
		}
		if aColBands[ca+1] == hi {
			ca++
		}
		if bRowBands[rb+1] == hi {
			rb++
		}
		lo = hi
	}
	return stages
}

// EstimateSpGEMMPlace prices the two ways SUMMA can hand every locale its
// stage panels. Stage broadcasts move each panel in its own tree per stage —
// per-stage headers and tree latencies, panel-sized messages. Prefetch
// all-gathers the full row panel of A and column panel of B once up front —
// one header per block, but the biggest messages the call will send. Panel
// nnz per stage is approximated as the block's nnz split evenly over the
// stages crossing it.
func EstimateSpGEMMPlace[T semiring.Number](rt *locale.Runtime, a, b *dist.Mat[T], stages []summaStage) (stage, prefetch float64) {
	g := rt.G
	const hdr = 16
	stagesInA := make([]int, g.Pc)
	stagesInB := make([]int, g.Pr)
	for _, st := range stages {
		stagesInA[st.ca]++
		stagesInB[st.rb]++
	}
	for _, st := range stages {
		var worst float64
		for r := 0; r < g.Pr; r++ {
			nnz := a.Blocks[g.ID(r, st.ca)].NNZ() / maxInt(stagesInA[st.ca], 1)
			if t := rt.S.BulkTime(hdr+int64(16*nnz), false) * estTreeDepth(g.Pc); t > worst {
				worst = t
			}
		}
		for c := 0; c < g.Pc; c++ {
			nnz := b.Blocks[g.ID(st.rb, c)].NNZ() / maxInt(stagesInB[st.rb], 1)
			if t := rt.S.BulkTime(hdr+int64(16*nnz), false) * estTreeDepth(g.Pr); t > worst {
				worst = t
			}
		}
		stage += worst
	}
	for r := 0; r < g.Pr; r++ {
		var team float64
		for c := 0; c < g.Pc; c++ {
			team += rt.S.BulkTime(hdr+int64(16*a.Blocks[g.ID(r, c)].NNZ()), false) * estTreeDepth(g.Pc)
		}
		if team > prefetch {
			prefetch = team
		}
	}
	for c := 0; c < g.Pc; c++ {
		var team float64
		for r := 0; r < g.Pr; r++ {
			team += rt.S.BulkTime(hdr+int64(16*b.Blocks[g.ID(r, c)].NNZ()), false) * estTreeDepth(g.Pr)
		}
		if team > prefetch {
			prefetch = team
		}
	}
	return stage, prefetch
}

// summaPlace routes the broadcast placement through the runtime's inspector
// with the standard precedence (forced > fault-plan > single-locale >
// modeled cost). A nil inspector keeps the historical per-stage broadcasts.
func summaPlace[T semiring.Number](rt *locale.Runtime, a, b *dist.Mat[T], stages []summaStage) inspect.Place {
	in := rt.Insp
	if in == nil {
		return inspect.PlaceGather
	}
	if rt.Fault != nil || rt.G.P == 1 {
		reason := inspect.ReasonSingleLocale
		if rt.Fault != nil {
			// Per-stage broadcasts carry the per-transfer retry accounting;
			// keep them so injected faults surface mid-broadcast.
			reason = inspect.ReasonFaultPlan
		}
		in.Note("SpGEMM", inspect.AxisPlace, "gather", reason)
		defer dispatchSpan(rt, in).End()
		return inspect.PlaceGather
	}
	sc, pc := EstimateSpGEMMPlace(rt, a, b, stages)
	choice := in.DecidePlace("SpGEMM", sc, pc, ReasonStageBroadcast, ReasonPanelPrefetch)
	defer dispatchSpan(rt, in).End()
	return choice
}

// mergeCSRInto writes a ⊕ b (entry-wise, add on collisions) into out,
// reusing out's arrays. a and b must have identical shape.
func mergeCSRInto[T semiring.Number](a, b *sparse.CSR[T], add semiring.BinaryOp[T], out *sparse.CSR[T]) {
	spgemmResize(out, a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		x, y := 0, 0
		for x < len(ac) && y < len(bc) {
			switch {
			case ac[x] < bc[y]:
				out.ColIdx = append(out.ColIdx, ac[x])
				out.Val = append(out.Val, av[x])
				x++
			case ac[x] > bc[y]:
				out.ColIdx = append(out.ColIdx, bc[y])
				out.Val = append(out.Val, bv[y])
				y++
			default:
				out.ColIdx = append(out.ColIdx, ac[x])
				out.Val = append(out.Val, add(av[x], bv[y]))
				x, y = x+1, y+1
			}
		}
		for ; x < len(ac); x++ {
			out.ColIdx = append(out.ColIdx, ac[x])
			out.Val = append(out.Val, av[x])
		}
		for ; y < len(bc); y++ {
			out.ColIdx = append(out.ColIdx, bc[y])
			out.Val = append(out.Val, bv[y])
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
}

// maskCSRInPlace keeps only the entries of a whose positions are stored in
// mask (the structural masked-SpGEMM rule of SpGEMMMasked, applied
// blockwise), compacting a's arrays in place.
func maskCSRInPlace[T semiring.Number](a, mask *sparse.CSR[T]) {
	w, start := 0, 0
	for i := 0; i < a.NRows; i++ {
		end := a.RowPtr[i+1]
		mc, _ := mask.Row(i)
		y := 0
		for x := start; x < end; x++ {
			j := a.ColIdx[x]
			for y < len(mc) && mc[y] < j {
				y++
			}
			if y < len(mc) && mc[y] == j {
				a.ColIdx[w], a.Val[w] = j, a.Val[x]
				w, y = w+1, y+1
			}
		}
		a.RowPtr[i+1] = w
		start = end
	}
	a.ColIdx, a.Val = a.ColIdx[:w], a.Val[:w]
}

// summaWork is the state one SUMMA call reuses across its stages and hands
// on to the next call through summaPool: the stage list,
// the broadcast teams, each locale's stage product and merge spare, and the
// buffers the panels of non-square grids are built in.
//
// Panels are never copied when they need not be. When a stage covers an A
// block's whole column band (every stage of a square grid) or a B block's
// whole row band, the panel is the block itself; the local kernels only
// read their operands. Otherwise a B panel is a row range, so it becomes a
// RowView onto the block, and an A panel is a column window, extracted with
// SubMatrixInto into a buffer reused across stages and calls.
type summaWork[T semiring.Number] struct {
	g        *locale.Grid
	stages   []summaStage
	teams    []int // the Pr row teams (Pc ids each), then the Pc column teams
	stageOut []*sparse.CSR[T]
	spares   []*sparse.CSR[T]
	aPanels  []*sparse.CSR[T] // per grid row: this stage's A panel
	bPanels  []*sparse.CSR[T] // per grid column: this stage's B panel
	aBufs    []sparse.CSR[T]  // per grid row: extracted A column windows
	bViews   []sparse.CSR[T]  // per grid column: B row-range views
}

// summaPools holds one sync.Pool of *summaWork[T] per element type, keyed by
// the typed nil (*summaWork[T])(nil), so SUMMA calls over different element
// types never take or evict each other's workspace.
var summaPools sync.Map

// summaPool is the workspace pool for element type T.
func summaPool[T semiring.Number]() *sync.Pool {
	key := any((*summaWork[T])(nil))
	p, ok := summaPools.Load(key)
	if !ok {
		p, _ = summaPools.LoadOrStore(key, &sync.Pool{New: func() any { return &summaWork[T]{} }})
	}
	return p.(*sync.Pool)
}

// getSummaWork checks a workspace out of summaPool, sized for rt's grid.
func getSummaWork[T semiring.Number](rt *locale.Runtime) *summaWork[T] {
	g := rt.G
	ws := summaPool[T]().Get().(*summaWork[T])
	ws.g = g
	ws.teams = ws.teams[:0]
	for r := 0; r < g.Pr; r++ {
		for c := 0; c < g.Pc; c++ {
			ws.teams = append(ws.teams, g.ID(r, c))
		}
	}
	for c := 0; c < g.Pc; c++ {
		for r := 0; r < g.Pr; r++ {
			ws.teams = append(ws.teams, g.ID(r, c))
		}
	}
	ws.stageOut = growCSRs(ws.stageOut, g.P)
	ws.spares = growCSRs(ws.spares, g.P)
	ws.aPanels = resize(ws.aPanels, g.Pr)
	ws.bPanels = resize(ws.bPanels, g.Pc)
	ws.aBufs = resize(ws.aBufs, g.Pr)
	ws.bViews = resize(ws.bViews, g.Pc)
	return ws
}

// put drops every reference into the call's operands — the panels may be
// the operands' own blocks, the views alias their storage — and returns the
// workspace to summaPool.
func (ws *summaWork[T]) put() {
	ws.g = nil
	clear(ws.aPanels)
	clear(ws.bPanels)
	for c := range ws.bViews {
		ws.bViews[c].ColIdx, ws.bViews[c].Val = nil, nil
	}
	summaPool[T]().Put(ws)
}

// rowTeam and colTeam are the broadcast teams of grid row r and column c.
func (ws *summaWork[T]) rowTeam(r int) []int {
	return ws.teams[r*ws.g.Pc : (r+1)*ws.g.Pc]
}

func (ws *summaWork[T]) colTeam(c int) []int {
	return ws.teams[ws.g.P+c*ws.g.Pr : ws.g.P+(c+1)*ws.g.Pr]
}

// aPanel returns stage st's panel of A's block (r, st.ca): the block itself
// when the stage spans its whole column band, else the window extracted into
// the row's reused buffer.
func (ws *summaWork[T]) aPanel(a *dist.Mat[T], r int, st summaStage) *sparse.CSR[T] {
	blk := a.Blocks[ws.g.ID(r, st.ca)]
	c0, c1 := st.lo-a.ColBands[st.ca], st.hi-a.ColBands[st.ca]
	if c0 == 0 && c1 == blk.NCols {
		return blk
	}
	blk.SubMatrixInto(&ws.aBufs[r], 0, blk.NRows, c0, c1)
	return &ws.aBufs[r]
}

// bPanel returns stage st's panel of B's block (st.rb, c): the block itself
// when the stage spans its whole row band, else a row-range view onto it.
func (ws *summaWork[T]) bPanel(b *dist.Mat[T], c int, st summaStage) *sparse.CSR[T] {
	blk := b.Blocks[ws.g.ID(st.rb, c)]
	r0, r1 := st.lo-b.RowBands[st.rb], st.hi-b.RowBands[st.rb]
	if r0 == 0 && r1 == blk.NRows {
		return blk
	}
	blk.RowView(&ws.bViews[c], r0, r1)
	return &ws.bViews[c]
}

// growCSRs resizes s to n matrices, filling new slots with empty ones.
func growCSRs[T semiring.Number](s []*sparse.CSR[T], n int) []*sparse.CSR[T] {
	s = resize(s, n)
	for i := range s {
		if s[i] == nil {
			s[i] = &sparse.CSR[T]{}
		}
	}
	return s
}

// resize returns s with length n, keeping its entries and reallocating only
// when its capacity is short.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return append(s[:cap(s)], make([]E, n-cap(s))...)
	}
	return s[:n]
}

// summaPhaseNames caches the per-stage phase names so a warm stage loop
// formats nothing.
var summaPhaseNames = func() (names [64]string) {
	for k := range names {
		names[k] = fmt.Sprintf("SUMMA stage %d", k)
	}
	return names
}()

func summaPhase(k int) string {
	if k < len(summaPhaseNames) {
		return summaPhaseNames[k]
	}
	return fmt.Sprintf("SUMMA stage %d", k)
}

// summaSpan opens one stage span (tagged k unless k < 0). With tracing off
// it returns nil before building a tag, so a warm stage loop allocates
// nothing.
func summaSpan(rt *locale.Runtime, name, stage string, k int) *trace.Span {
	if rt.Tr == nil {
		return nil
	}
	if k < 0 {
		return rt.Span(name, trace.T("op", "spgemm"), trace.T("stage", stage))
	}
	return rt.Span(name, trace.T("op", "spgemm"), trace.T("stage", stage), trace.T("k", strconv.Itoa(k)))
}

// SpGEMMDist computes C = A·B over a semiring for 2-D block-distributed
// matrices with blocked Sparse SUMMA. Any grid shape works, square or not;
// A.NCols must equal B.NRows. See the package comment at the top of this
// file for the algorithm.
func SpGEMMDist[T semiring.Number](rt *locale.Runtime, a, b *dist.Mat[T], sr semiring.Semiring[T]) (*dist.Mat[T], error) {
	c := &dist.Mat[T]{}
	if err := spgemmDist(rt, a, b, nil, sr, c); err != nil {
		return nil, err
	}
	return c, nil
}

// SpGEMMDistInto is SpGEMMDist writing the product into c, whose blocks and
// bands it reuses as the stage accumulators: a caller that multiplies
// repeatedly (MSBFSDist's frontier rounds) alternates two output matrices
// and, once they are warm, the whole call allocates nothing. c's previous
// blocks are recycled through the scratch arena, so references to them
// become invalid; c must not be a or b. On error c's contents are
// unspecified.
func SpGEMMDistInto[T semiring.Number](rt *locale.Runtime, a, b *dist.Mat[T], sr semiring.Semiring[T], c *dist.Mat[T]) error {
	return spgemmDist(rt, a, b, nil, sr, c)
}

// SpGEMMDistMasked computes C = (A·B) .* pattern(M): only output positions
// stored in the mask survive, applied blockwise after the stage merges (the
// distributed analogue of SpGEMMMasked — the mask's blocks align with C's
// because both share the grid and A's row / B's column bands).
func SpGEMMDistMasked[T semiring.Number](rt *locale.Runtime, a, b, mask *dist.Mat[T], sr semiring.Semiring[T]) (*dist.Mat[T], error) {
	if mask.NRows != a.NRows || mask.NCols != b.NCols {
		return nil, fmt.Errorf("core: SpGEMMDistMasked: mask is %dx%d, product is %dx%d",
			mask.NRows, mask.NCols, a.NRows, b.NCols)
	}
	c := &dist.Mat[T]{}
	if err := spgemmDist(rt, a, b, mask, sr, c); err != nil {
		return nil, err
	}
	return c, nil
}

// resetProduct readies c to receive the g-grid product of a and b: bands
// copied from the operands, one (possibly recycled) block per locale.
func resetProduct[T semiring.Number](g *locale.Grid, a, b, c *dist.Mat[T]) {
	c.G, c.NRows, c.NCols = g, a.NRows, b.NCols
	c.RowBands = append(c.RowBands[:0], a.RowBands...)
	c.ColBands = append(c.ColBands[:0], b.ColBands...)
	c.Blocks = growCSRs(c.Blocks, g.P)
	c.Replicas = nil
}

func spgemmDist[T semiring.Number](rt *locale.Runtime, a, b, mask *dist.Mat[T], sr semiring.Semiring[T], c *dist.Mat[T]) error {
	g := rt.G
	if a.NCols != b.NRows {
		return fmt.Errorf("core: SpGEMMDist: inner dimensions %d vs %d", a.NCols, b.NRows)
	}
	if c == a || c == b || c == mask {
		return fmt.Errorf("core: SpGEMMDist: output aliases an operand")
	}
	ws := getSummaWork[T](rt)
	defer ws.put()
	ws.stages = summaStages(ws.stages[:0], a.ColBands, b.RowBands)
	stages := ws.stages
	place := summaPlace(rt, a, b, stages)
	var top *trace.Span
	if rt.Tr != nil {
		placeTag := "stage-broadcast"
		if place == inspect.PlaceReplicate {
			placeTag = "panel-prefetch"
		}
		top = rt.Span("SpGEMMDist", trace.T("op", "spgemm"),
			trace.T("stages", strconv.Itoa(len(stages))), trace.T("place", placeTag))
	}
	defer top.End()
	rt.S.CoforallSpawn()
	resetProduct(g, a, b, c)

	if place == inspect.PlaceReplicate {
		// Prefetch: all-gather A's blocks along each row team and B's along
		// each column team once; the stage loop then slices panels locally.
		ps := summaSpan(rt, "SUMMAPrefetch", "broadcast", -1)
		for l := 0; l < g.P; l++ {
			r, cc := g.Coords(l)
			if err := comm.TeamBroadcastSparse(rt, l, ws.rowTeam(r), a.Blocks[l].NNZ(), "summa-prefetch-a"); err != nil {
				ps.End()
				return fmt.Errorf("core: SpGEMMDist prefetch: %w", err)
			}
			if err := comm.TeamBroadcastSparse(rt, l, ws.colTeam(cc), b.Blocks[l].NNZ(), "summa-prefetch-b"); err != nil {
				ps.End()
				return fmt.Errorf("core: SpGEMMDist prefetch: %w", err)
			}
		}
		ps.End()
	}

	// c's blocks are the per-locale accumulators; the first stage's product
	// is swapped in, later ones merge through the spare.
	for k, st := range stages {
		rt.S.BeginPhase(summaPhase(k))
		bs := summaSpan(rt, "SUMMABroadcast", "broadcast", k)
		for r := 0; r < g.Pr; r++ {
			ws.aPanels[r] = ws.aPanel(a, r, st)
			if place == inspect.PlaceGather {
				if err := comm.TeamBroadcastSparse(rt, g.ID(r, st.ca), ws.rowTeam(r), ws.aPanels[r].NNZ(), "summa-bcast-a"); err != nil {
					bs.End()
					return fmt.Errorf("core: SpGEMMDist stage %d: %w", k, err)
				}
			}
		}
		for cc := 0; cc < g.Pc; cc++ {
			ws.bPanels[cc] = ws.bPanel(b, cc, st)
			if place == inspect.PlaceGather {
				if err := comm.TeamBroadcastSparse(rt, g.ID(st.rb, cc), ws.colTeam(cc), ws.bPanels[cc].NNZ(), "summa-bcast-b"); err != nil {
					bs.End()
					return fmt.Errorf("core: SpGEMMDist stage %d: %w", k, err)
				}
			}
		}
		bs.End()

		ms := summaSpan(rt, "SUMMAMultiply", "multiply", k)
		for l := 0; l < g.P; l++ {
			r, cc := g.Coords(l)
			flops := SpGEMMLocal(rt.Scratch, ws.aPanels[r], ws.bPanels[cc], sr, ws.stageOut[l])
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name:         "summa-local",
				Items:        flops + int64(ws.aPanels[r].NNZ()),
				CPUPerItem:   25,
				BytesPerItem: 24,
			})
		}
		ms.End()

		gs := summaSpan(rt, "SUMMAMerge", "merge", k)
		for l := 0; l < g.P; l++ {
			if k == 0 {
				c.Blocks[l], ws.stageOut[l] = ws.stageOut[l], c.Blocks[l]
				continue
			}
			mergeCSRInto(c.Blocks[l], ws.stageOut[l], sr.Add.Op, ws.spares[l])
			c.Blocks[l], ws.spares[l] = ws.spares[l], c.Blocks[l]
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name:         "summa-merge",
				Items:        int64(c.Blocks[l].NNZ() + ws.stageOut[l].NNZ()),
				CPUPerItem:   30,
				BytesPerItem: 24,
			})
		}
		gs.End()
	}
	if len(stages) > 0 {
		rt.S.EndPhase()
	}

	for l := 0; l < g.P; l++ {
		blk := c.Blocks[l]
		if len(stages) == 0 {
			r, cc := g.Coords(l)
			spgemmResize(blk, a.RowBands[r+1]-a.RowBands[r], b.ColBands[cc+1]-b.ColBands[cc])
		}
		if mask != nil {
			maskCSRInPlace(blk, mask.Blocks[l])
			rt.S.Compute(l, rt.Threads, sim.Kernel{
				Name:         "summa-mask",
				Items:        int64(blk.NNZ() + mask.Blocks[l].NNZ()),
				CPUPerItem:   8,
				BytesPerItem: 16,
			})
		}
	}
	rt.S.Barrier()
	return nil
}
